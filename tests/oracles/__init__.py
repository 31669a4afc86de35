"""Reference copies of engines the library replaced.

Each module here is the plain, obviously-correct form of a stage whose
production engine is faster: the equivalence tests compare the two.
Nothing under ``src/`` imports these.
"""
