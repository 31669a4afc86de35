"""The chaos drills and the fault injectors they arm.

``tests.chaos.faults`` holds the injectors; ``test_drills.py`` holds one
``chaos``-marked test per drill.  Nothing under ``src/`` imports these.
"""
