"""Fixture-snippet pairs per rule: one true positive, one clean."""

from tests.analysis.helpers import check_tree, rule_ids


class TestKND001Determinism:
    def test_global_rng_unseeded_rng_and_wall_clock_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/fuzzing/bad.py": (
                "import time\n"
                "import random\n"
                "import numpy as np\n\n\n"
                "def sample():\n"
                "    a = np.random.rand(3)\n"
                "    b = np.random.default_rng()\n"
                "    c = random.random()\n"
                "    d = time.time()\n"
                "    return a, b, c, d\n"
            ),
        }, select=["KND001"])
        assert rule_ids(findings) == ["KND001"] * 4
        messages = " ".join(f.message for f in findings)
        assert "global numpy RNG" in messages
        assert "without an explicit seed" in messages
        assert "wall-clock" in messages

    def test_seeded_rng_interval_clock_and_out_of_scope_are_clean(
            self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/fuzzing/good.py": (
                "import time\n"
                "import numpy as np\n\n\n"
                "def build(config):\n"
                "    rng = np.random.default_rng(config.rng_seed)\n"
                "    start = time.perf_counter()\n"
                "    return rng, start\n"
            ),
            # Same hazards outside the replay-critical packages: allowed.
            "repro/experiments/elsewhere.py": (
                "import numpy as np\n\n\n"
                "def noise():\n"
                "    return np.random.rand(3)\n"
            ),
        }, select=["KND001"])
        assert findings == []


class TestKND002AtomicWrite:
    def test_raw_write_and_dynamic_mode_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/bad.py": (
                "def save(path, data, mode):\n"
                "    with open(path, 'w') as fh:\n"
                "        fh.write(data)\n"
                "    with open(path, mode) as fh:\n"
                "        fh.write(data)\n"
            ),
        }, select=["KND002"])
        assert rule_ids(findings) == ["KND002", "KND002"]
        assert "torn artifact" in findings[0].message
        assert "not a string literal" in findings[1].message

    def test_reads_and_ioutil_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/good.py": (
                "from repro.ioutil import atomic_write\n\n\n"
                "def roundtrip(path):\n"
                "    with atomic_write(path, 'wb') as fh:\n"
                "        fh.write(b'x')\n"
                "    with open(path, 'rb') as fh:\n"
                "        return fh.read()\n"
            ),
            # The atomic-write implementation itself is exempt.
            "repro/ioutil.py": (
                "def atomic_write(path, mode='wb'):\n"
                "    return open(path + '.tmp', mode)\n"
            ),
        }, select=["KND002"])
        assert findings == []


class TestKND003ErrorTaxonomy:
    def test_swallowing_broad_except_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/bad.py": (
                "def quiet(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except Exception:\n"
                "        return None\n"
                "    finally:\n"
                "        pass\n\n\n"
                "def quieter(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except:  # noqa: E722\n"
                "        return None\n"
            ),
        }, select=["KND003"])
        assert rule_ids(findings) == ["KND003", "KND003"]
        assert "bare except" in findings[1].message

    def test_reraise_and_outcome_paths_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/good.py": (
                "def narrow(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except ValueError:\n"
                "        return None\n\n\n"
                "def reraises(fn):\n"
                "    try:\n"
                "        return fn()\n"
                "    except Exception:\n"
                "        raise\n\n\n"
                "def taxonomized(fn, outcome, breaker):\n"
                "    try:\n"
                "        return outcome.success(fn())\n"
                "    except Exception as exc:\n"
                "        breaker.record_failure()\n"
                "        return outcome.failure(exc)\n"
            ),
        }, select=["KND003"])
        assert findings == []


class TestKND004Layering:
    def test_upward_and_cross_imports_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/bad_up.py": "from repro.cli import main\n",
            "repro/carving/bad_cross.py":
                "from repro.fuzzing.schedule import FuzzSchedule\n",
            "repro/cli.py": "main = object\n",
            "repro/fuzzing/schedule.py": "FuzzSchedule = object\n",
        }, select=["KND004"])
        assert sorted(rule_ids(findings)) == ["KND004", "KND004"]
        by_module = {f.module: f.message for f in findings}
        assert "upward import" in by_module["repro.audit.bad_up"]
        assert "cross-layer import" in by_module["repro.carving.bad_cross"]

    def test_downward_and_deferred_imports_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/good.py": (
                "from repro.fuzzing.schedule import FuzzSchedule\n"
                "from repro.arraymodel.datafile import ArrayFile\n"
            ),
            # Deferred imports are the sanctioned cycle-breaker.
            "repro/audit/deferred.py": (
                "def lazy():\n"
                "    from repro.cli import main\n"
                "    return main\n"
            ),
            "repro/cli.py": "main = object\n",
            "repro/fuzzing/schedule.py": "FuzzSchedule = object\n",
            "repro/arraymodel/datafile.py": "ArrayFile = object\n",
        }, select=["KND004"])
        assert findings == []


class TestKND006ResourceHygiene:
    def test_leaked_handle_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/bad.py": (
                "def slurp(path):\n"
                "    return open(path, 'rb').read()\n"
            ),
        }, select=["KND006"])
        assert rule_ids(findings) == ["KND006"]
        assert "leaked descriptor" in findings[0].message

    def test_with_and_reader_object_pattern_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/arraymodel/good.py": (
                "class Reader:\n"
                "    def __init__(self, path):\n"
                "        self._fh = open(path, 'rb')\n\n"
                "    def close(self):\n"
                "        self._fh.close()\n\n\n"
                "def slurp(path):\n"
                "    with open(path, 'rb') as fh:\n"
                "        return fh.read()\n\n\n"
                "def paired(path):\n"
                "    fh = open(path, 'rb')\n"
                "    try:\n"
                "        return fh.read()\n"
                "    finally:\n"
                "        fh.close()\n"
            ),
            # Out-of-scope package: not this rule's concern.
            "repro/experiments/meh.py": (
                "def slurp(path):\n"
                "    return open(path, 'rb').read()\n"
            ),
        }, select=["KND006"])
        assert findings == []


class TestKND007DurableWrites:
    def test_raw_write_to_bundle_path_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/bad.py": (
                "def clobber(data):\n"
                "    with open('out.knds', 'wb') as fh:\n"
                "        fh.write(data)\n\n\n"
                "def clobber_var(bundle_path, data):\n"
                "    with open(bundle_path, 'r+b') as fh:\n"
                "        fh.write(data)\n"
            ),
        }, select=["KND007"])
        assert rule_ids(findings) == ["KND007", "KND007"]
        assert all("journal" in f.message for f in findings)

    def test_replace_onto_journal_artifact_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/core/bad2.py": (
                "import os\n\n\n"
                "def swap(tmp, journal_dir):\n"
                "    os.replace(tmp, journal_dir + '/journal.log')\n"
            ),
        }, select=["KND007"])
        assert rule_ids(findings) == ["KND007"]

    def test_sanctioned_and_unrelated_writes_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            # The journal module itself is the sanctioned mutation site.
            "repro/resilience/durability/journal.py": (
                "def truncate_tail(log_path, end):\n"
                "    with open(log_path, 'r+b') as fh:\n"
                "        fh.truncate(end)\n"
            ),
            # Non-durable artifacts are out of scope (KND002's turf).
            "repro/core/fine.py": (
                "def note(path, text):\n"
                "    with open(path, 'w') as fh:\n"
                "        fh.write(text)\n\n\n"
                "def read_bundle(bundle_path):\n"
                "    with open(bundle_path, 'rb') as fh:\n"
                "        return fh.read()\n"
            ),
            # Annotated fault injection is reviewable and allowed.
            "repro/resilience/fine.py": (
                "def tear(bundle_path, data):\n"
                "    # kondo: allow[KND007] fault injector: the torn "
                "write is the fault\n"
                "    with open(bundle_path, 'wb') as fh:\n"
                "        fh.write(data[:3])\n"
            ),
        }, select=["KND007"])
        assert findings == []


class TestKND008BoundedWaits:
    def test_unbounded_blocking_calls_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/resilience/bad.py": (
                "def reap(worker):\n"
                "    worker.join()\n\n\n"
                "def idle(event):\n"
                "    event.wait()\n"
            ),
            "repro/perf/bad.py": (
                "def pull(conn):\n"
                "    return conn.recv()\n"
            ),
        }, select=["KND008"])
        assert rule_ids(findings) == ["KND008", "KND008", "KND008"]
        assert all("timeout or deadline" in f.message for f in findings)

    def test_bounded_and_out_of_scope_waits_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/resilience/good.py": (
                "import time\n\n\n"
                "def nap(delay):\n"
                "    time.sleep(delay)\n\n\n"
                "def reap(worker, budget):\n"
                "    worker.join(timeout=budget)\n\n\n"
                "def idle(event, deadline):\n"
                "    event.wait(deadline)\n\n\n"
                "def label(parts):\n"
                "    return ', '.join(parts)\n"
            ),
            # Annotated exceptions are reviewable and allowed.
            "repro/perf/good.py": (
                "def drain(worker):\n"
                "    # kondo: allow[KND008] shutdown path: the worker "
                "is already cancelled\n"
                "    worker.join()\n"
            ),
            # Out-of-scope package: blocking freely is fine elsewhere.
            "repro/workloads/meh.py": (
                "def wait_for_user(event):\n"
                "    event.wait()\n"
            ),
        }, select=["KND008"])
        assert findings == []


class TestKND009VectorizedAudit:
    def test_loops_in_hot_functions_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/blockcapture.py": (
                "def _drain(buf):\n"
                "    for k in range(buf.n):\n"
                "        handle(buf.offsets[k])\n\n\n"
                "while True:\n"
                "    break\n"
            ),
            "repro/audit/flatstore.py": (
                "def insert_batch(starts, ends):\n"
                "    k = 0\n"
                "    while k < len(starts):\n"
                "        insert(starts[k], ends[k])\n"
                "        k += 1\n"
            ),
        }, select=["KND009"])
        assert rule_ids(findings) == ["KND009"] * 3
        messages = " ".join(f.message for f in findings)
        assert "in _drain()" in messages
        assert "at module scope" in messages
        assert "in insert_batch()" in messages
        assert all("vectorized" in f.message for f in findings)

    def test_allowed_helpers_and_out_of_scope_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/blockcapture.py": (
                "def events(log):\n"
                "    out = []\n"
                "    for chunk in log:\n"
                "        out.extend(chunk)\n"
                "    return out\n\n\n"
                "def flush(buffers):\n"
                "    for buf in buffers:\n"
                "        drain(buf)\n\n\n"
                "def _ingest_groups(idents, starts):\n"
                "    for ident in set(idents):\n"
                "        ingest(ident, starts)\n"
            ),
            "repro/audit/flatstore.py": (
                "def _grow_to(cap, n):\n"
                "    while cap < n:\n"
                "        cap *= 2\n"
                "    return cap\n\n\n"
                "def iter_intervals(starts, ends):\n"
                "    for pair in zip(starts, ends):\n"
                "        yield pair\n"
            ),
            # Same loops anywhere else in the audit layer: fine.
            "repro/audit/session.py": (
                "def merge_all(trees):\n"
                "    for tree in trees:\n"
                "        tree.merged()\n"
            ),
        }, select=["KND009"])
        assert findings == []


class TestKND010BoundedService:
    def test_unbounded_queues_and_waits_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/bad.py": (
                "import queue\n\n\n"
                "def build():\n"
                "    q = queue.Queue()\n"
                "    zero = queue.Queue(maxsize=0)\n"
                "    simple = queue.SimpleQueue()\n"
                "    return q, zero, simple\n\n\n"
                "def pull(q):\n"
                "    return q.get()\n\n\n"
                "def front_door(sock):\n"
                "    conn, _ = sock.accept()\n"
                "    return conn.recv(4096)\n"
            ),
        }, select=["KND010"])
        assert rule_ids(findings) == ["KND010"] * 6
        messages = " ".join(f.message for f in findings)
        assert "maxsize" in messages
        assert "SimpleQueue" in messages
        assert "settimeout" in messages

    def test_bounded_ops_and_out_of_scope_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/good.py": (
                "import queue\n\n\n"
                "def build(limit):\n"
                "    return queue.Queue(maxsize=limit)\n\n\n"
                "def pull(q, tick):\n"
                "    return q.get(timeout=tick)\n\n\n"
                "def front_door(sock, tick):\n"
                "    # The idiomatic socket pattern: bound the socket\n"
                "    # once in this function, then loop on accept/recv.\n"
                "    sock.settimeout(tick)\n"
                "    conn, _ = sock.accept()\n"
                "    return conn.recv(4096)\n\n\n"
                "def lookup(table, key):\n"
                "    # dict.get is not a blocking wait.\n"
                "    return table.get(key, None)\n"
            ),
            # The same constructs outside repro.service: KND008's turf.
            "repro/core/meh.py": (
                "import queue\n\n\n"
                "def anything_goes(sock):\n"
                "    q = queue.Queue()\n"
                "    return q, sock.accept()\n"
            ),
        }, select=["KND010"])
        assert findings == []


class TestKND011LockOrder:
    def test_interprocedural_ab_ba_cycle_fires(self, tmp_path):
        # The acceptance fixture: the two halves of the deadlock are in
        # different functions and each takes the second lock through a
        # call, so only the interprocedural lock-order graph sees it.
        findings = check_tree(tmp_path, {
            "repro/audit/ab.py": (
                "import threading\n\n"
                "a = threading.Lock()\n"
                "b = threading.Lock()\n\n\n"
                "def forward():\n"
                "    with a:\n"
                "        take_b()\n\n\n"
                "def take_b():\n"
                "    with b:\n"
                "        pass\n\n\n"
                "def backward():\n"
                "    with b:\n"
                "        take_a()\n\n\n"
                "def take_a():\n"
                "    with a:\n"
                "        pass\n"
            ),
        }, select=["KND011"])
        assert rule_ids(findings) == ["KND011"]
        f = findings[0]
        assert "lock-order cycle" in f.message
        assert "repro.audit.ab:a" in f.message
        assert "repro.audit.ab:b" in f.message
        # One witness line per edge: both paths are named.
        assert len(f.witness) == 2
        joined = " ".join(f.witness)
        assert "forward" in joined and "backward" in joined

    def test_consistent_order_and_reentry_are_clean(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/ordered.py": (
                "import threading\n\n"
                "a = threading.Lock()\n"
                "b = threading.Lock()\n\n\n"
                "def one():\n"
                "    with a:\n"
                "        with b:\n"
                "            pass\n\n\n"
                "def two():\n"
                "    with a:\n"
                "        grab_b()\n\n\n"
                "def grab_b():\n"
                "    with b:\n"
                "        pass\n"
            ),
        }, select=["KND011"])
        assert findings == []


class TestKND012BlockingUnderLock:
    def test_direct_and_interprocedural_blocking_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/buf.py": (
                "import os\n"
                "import threading\n\n\n"
                "class Buf:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n\n"
                "    def flush_direct(self, fd):\n"
                "        with self._lock:\n"
                "            os.fsync(fd)\n\n"
                "    def flush_via_call(self, fd):\n"
                "        with self._lock:\n"
                "            self._sync(fd)\n\n"
                "    def _sync(self, fd):\n"
                "        os.fsync(fd)\n"
            ),
        }, select=["KND012"])
        assert rule_ids(findings) == ["KND012", "KND012"]
        direct, via = findings
        assert "fsync" in direct.message
        assert "repro.audit.buf:Buf._lock" in direct.message
        # The interprocedural finding carries the chain to the primitive.
        assert "repro.audit.buf:Buf._sync" in via.message
        assert any("os.fsync" in hop for hop in via.witness)

    def test_blocking_outside_lock_and_out_of_scope_are_clean(
            self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/audit/ok.py": (
                "import os\n"
                "import threading\n\n\n"
                "class Buf:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.dirty = []\n\n"
                "    def flush(self, fd):\n"
                "        with self._lock:\n"
                "            batch = list(self.dirty)\n"
                "        os.fsync(fd)\n"
                "        return batch\n"
            ),
            # Same pattern outside audit/service/resilience: not this
            # rule's contract.
            "repro/fuzzing/meh.py": (
                "import os\n"
                "import threading\n\n"
                "gate = threading.Lock()\n\n\n"
                "def flush(fd):\n"
                "    with gate:\n"
                "        os.fsync(fd)\n"
            ),
        }, select=["KND012"])
        assert findings == []


class TestKND013ForkSafety:
    def test_fork_under_lock_and_thread_before_fork_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/resilience/forks.py": (
                "import os\n"
                "import threading\n\n"
                "gate = threading.Lock()\n\n\n"
                "def fork_locked():\n"
                "    with gate:\n"
                "        return os.fork()\n\n\n"
                "def fork_via_call():\n"
                "    with gate:\n"
                "        return spawn()\n\n\n"
                "def spawn():\n"
                "    return os.fork()\n\n\n"
                "def thread_then_fork(work):\n"
                "    t = threading.Thread(target=work)\n"
                "    t.start()\n"
                "    return os.fork()\n"
            ),
        }, select=["KND013"])
        assert rule_ids(findings) == ["KND013"] * 3
        direct, via, threaded = findings
        assert "locked mutex" in direct.message
        assert "repro.resilience.forks:spawn" in via.message
        assert any("os.fork" in hop for hop in via.witness)
        assert "after creating a thread" in threaded.message

    def test_lock_free_fork_and_fork_before_thread_are_clean(
            self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/resilience/ok.py": (
                "import os\n"
                "import threading\n\n"
                "gate = threading.Lock()\n\n\n"
                "def fork_clean():\n"
                "    with gate:\n"
                "        pid = 0\n"
                "    return os.fork()\n\n\n"
                "def fork_then_thread(work):\n"
                "    pid = os.fork()\n"
                "    if pid == 0:\n"
                "        return 0\n"
                "    t = threading.Thread(target=work)\n"
                "    t.start()\n"
                "    return pid\n"
            ),
        }, select=["KND013"])
        assert findings == []


class TestKND014ShardMergeDeterminism:
    def test_rng_wall_clock_and_unsorted_merge_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/shard_bad.py": (
                "import random\n"
                "import time\n"
                "import numpy as np\n\n\n"
                "def plan_slices(n):\n"
                "    jitter = random.random()\n"
                "    stamp = time.time()\n"
                "    seeds = np.random.rand(n)\n"
                "    return jitter, stamp, seeds\n\n\n"
                "def merge_results(results):\n"
                "    clouds = []\n"
                "    for idx, res in results.items():\n"
                "        clouds.append(res)\n"
                "    return clouds\n"
            ),
        }, select=["KND014"])
        assert rule_ids(findings) == ["KND014"] * 4
        messages = " ".join(f.message for f in findings)
        assert "wall-clock" in messages
        assert "RNG call" in messages
        assert "completion) order" in messages

    def test_keyed_seeds_sorted_merge_and_out_of_scope_are_clean(
            self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/shard_good.py": (
                "import hashlib\n"
                "import time\n\n\n"
                "def derive_seed(job_key, index):\n"
                "    digest = hashlib.sha256(\n"
                "        f'{job_key}:{index}'.encode()).digest()\n"
                "    return int.from_bytes(digest[:8], 'little')\n\n\n"
                "def merge_results(results, budget_s):\n"
                "    start = time.monotonic()\n"
                "    clouds = [results[i] for i in sorted(results)]\n"
                "    for idx in sorted(results.keys()):\n"
                "        clouds.append(results[idx])\n"
                "    return clouds, start\n"
            ),
            # Same hazards outside the shard modules: other rules' turf.
            "repro/service/daemon2.py": (
                "import time\n\n\n"
                "def tick():\n"
                "    return time.time()\n\n\n"
                "def merge_views(views):\n"
                "    return [v for _, v in views.items()]\n"
            ),
        }, select=["KND014"])
        assert findings == []


class TestKND015FencedStoreWrites:
    def test_raw_primitives_in_fleet_modules_fire(self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/fleet/bad_store.py": (
                "import os\n"
                "from repro.ioutil import atomic_write, durable_append\n\n\n"
                "def publish(path, data):\n"
                "    with atomic_write(path, 'wb') as fh:\n"
                "        fh.write(data)\n"
                "    durable_append(path + '.events', data)\n"
                "    fd = os.open(path, os.O_CREAT | os.O_EXCL | "
                "os.O_WRONLY)\n"
                "    os.close(fd)\n"
                "    with open(path, 'w') as fh:\n"
                "        fh.write('x')\n"
            ),
        }, select=["KND015"])
        assert rule_ids(findings) == ["KND015"] * 4
        messages = " ".join(f.message for f in findings)
        assert "publish_sealed" in messages
        assert "append_sealed" in messages
        assert "create_sealed_exclusive" in messages
        assert "token" in messages

    def test_raw_primitives_anywhere_in_the_service_fire(self, tmp_path):
        # The daemon and every other service module keep state only in
        # the campaign store, so the rule covers the whole package.
        findings = check_tree(tmp_path, {
            "repro/service/daemon_state.py": (
                "import os\n"
                "from repro.ioutil import atomic_write, durable_append\n\n\n"
                "def persist(path, data):\n"
                "    with atomic_write(path, 'wb') as fh:\n"
                "        fh.write(data)\n"
                "    durable_append(path + '.log', data)\n"
                "    fd = os.open(path, os.O_RDWR)\n"
                "    os.close(fd)\n"
            ),
        }, select=["KND015"])
        assert rule_ids(findings) == ["KND015"] * 3
        assert all("service module" in f.message for f in findings)

    def test_service_helpers_and_non_service_writes_are_clean(
            self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/daemon_state.py": (
                "from repro.service.fleet.fencing import publish_sealed\n\n\n"
                "def persist(path, record):\n"
                "    publish_sealed(path, record)\n"
                "    with open(path, 'rb') as fh:\n"
                "        return fh.read()\n"
            ),
            "repro/perf/elsewhere.py": (
                "from repro.ioutil import durable_append\n\n\n"
                "def log(path, data):\n"
                "    durable_append(path, data)\n"
            ),
        }, select=["KND015"])
        assert findings == []

    def test_fencing_helpers_reads_and_out_of_scope_are_clean(
            self, tmp_path):
        findings = check_tree(tmp_path, {
            "repro/service/fleet/good_store.py": (
                "from repro.service.fleet.fencing import (\n"
                "    append_sealed, create_sealed_exclusive,\n"
                "    publish_sealed, read_sealed)\n\n\n"
                "def roundtrip(path, record):\n"
                "    publish_sealed(path, record)\n"
                "    create_sealed_exclusive(path + '.done', record)\n"
                "    append_sealed(path + '.events', record)\n"
                "    with open(path, 'rb') as fh:\n"
                "        fh.read()\n"
                "    return read_sealed(path)\n"
            ),
            # The helper module itself owns the raw primitives.
            "repro/service/fleet/fencing.py": (
                "import os\n"
                "from repro.ioutil import atomic_write\n\n\n"
                "def publish_sealed(path, record):\n"
                "    with atomic_write(path, 'wb') as fh:\n"
                "        fh.write(record)\n\n\n"
                "def create_sealed_exclusive(path, record):\n"
                "    fd = os.open(path, os.O_CREAT | os.O_EXCL | "
                "os.O_WRONLY)\n"
                "    os.close(fd)\n"
            ),
            # Same primitives outside the service package: other rules'
            # turf (KND002/KND007), not this one's.
            "repro/resilience/elsewhere.py": (
                "from repro.ioutil import atomic_write\n\n\n"
                "def save(path, data):\n"
                "    with atomic_write(path, 'wb') as fh:\n"
                "        fh.write(data)\n"
            ),
        }, select=["KND015"])
        assert findings == []
