"""ML collectives as message-dependency DAGs.

A collective is not a traffic *rate* — it is a partial order of
messages.  Rank ``i`` may start its step-``s`` transfer only once the
step-``s-1`` transfers it depends on have been **delivered** (the
source saw the acknowledgment), never after some wall-clock delay.
:class:`CollectiveSchedule` captures that partial order;
:class:`CollectiveWorkload` executes it on a live network as a
:class:`~repro.endpoint.traffic.TrafficSource`-compatible driver plus
one lightweight engine observer
(:class:`CollectiveObserver`) that watches the shared message log for
deliveries and releases DAG successors.

Because the release mechanism runs entirely off the observer tick and
the sources expose ``next_arrival_cycle`` hints, the same workload
object runs unchanged — and byte-identically — on the dense reference
engine and the event-driven backend (idle compression included), and
the whole live DAG pickles with the engine for snapshot/restore.

Schedule generators cover the collectives an ML fabric evaluation
needs: ring and recursive-doubling all-reduce, all-to-all, and
pipeline-parallel microbatch schedules; :class:`ModelShape` turns a
list of layer sizes into the per-step message sizes of a model-shaped
training step.
"""

import hashlib

from repro.core import mutation
from repro.core.random_source import derive_seed
from repro.endpoint.messages import (
    ABANDONED,
    DELIVERED,
    Message,
    message_fingerprint,
)
from repro.endpoint.traffic import random_payload

import random


class CollectiveOp:
    """One point-to-point transfer inside a collective.

    :param op_id: position in the schedule (assigned by the schedule).
    :param src: sending endpoint index.
    :param dest: receiving endpoint index.
    :param words: payload length in words.
    :param deps: op_ids whose *delivery* gates this op's release.
    :param step: reporting tag — the logical step (an int, or a
        ``(layer, step)`` tuple for model-shaped schedules).
    """

    __slots__ = ("op_id", "src", "dest", "words", "deps", "step")

    def __init__(self, op_id, src, dest, words, deps, step):
        self.op_id = op_id
        self.src = src
        self.dest = dest
        self.words = words
        self.deps = tuple(deps)
        self.step = step

    def __repr__(self):
        return "<CollectiveOp {} {}->{} step={} deps={}>".format(
            self.op_id, self.src, self.dest, self.step, self.deps
        )


class CollectiveSchedule:
    """A dependency DAG of transfers: the algebra of one collective.

    Construct via the generators (:meth:`ring_all_reduce`,
    :meth:`recursive_doubling_all_reduce`, :meth:`all_to_all`,
    :meth:`pipeline_parallel`) or compose by hand with :meth:`add_op`.
    Dependencies always point at *earlier* op_ids (a cycle is a
    deadlock, and :meth:`add_op` rejects forward references), so a
    schedule is a valid topological order by construction.
    """

    def __init__(self, n_endpoints, label="custom"):
        self.n_endpoints = n_endpoints
        self.label = label
        self.ops = []

    def add_op(self, src, dest, words, deps=(), step=0):
        """Append one transfer; returns its op_id."""
        op_id = len(self.ops)
        for dep in deps:
            if not 0 <= dep < op_id:
                raise ValueError(
                    "op {} dependency {} is not an earlier op".format(op_id, dep)
                )
        if src == dest:
            raise ValueError("op {} sends to itself".format(op_id))
        if not (0 <= src < self.n_endpoints and 0 <= dest < self.n_endpoints):
            raise ValueError("op {} endpoint out of range".format(op_id))
        self.ops.append(CollectiveOp(op_id, src, dest, words, deps, step))
        return op_id

    def __len__(self):
        return len(self.ops)

    def steps(self):
        """The distinct step tags, in first-appearance order."""
        seen = []
        for op in self.ops:
            if op.step not in seen:
                seen.append(op.step)
        return seen

    # -- generators ------------------------------------------------------

    @classmethod
    def ring_all_reduce(cls, n_endpoints, words_per_rank=20, ranks=None,
                        base=None):
        """Ring all-reduce: ``2(n-1)`` steps of neighbor transfers.

        The classic bandwidth-optimal algorithm: ``n-1`` reduce-scatter
        steps then ``n-1`` all-gather steps, each rank forwarding one
        chunk (``ceil(words/n)``) to its ring successor.  Rank ``i``'s
        step-``s`` send depends on the step-``s-1`` message it received
        from rank ``i-1`` — the chunk it is about to combine/forward.
        """
        ranks = list(range(n_endpoints)) if ranks is None else list(ranks)
        n = len(ranks)
        if n < 2:
            raise ValueError("a ring needs at least 2 ranks")
        schedule = base if base is not None else cls(n_endpoints, "ring-all-reduce")
        chunk = max(1, -(-words_per_rank // n))
        previous = {}  # rank position -> op_id of its last send
        for s in range(2 * (n - 1)):
            current = {}
            for i in range(n):
                deps = []
                if s > 0:
                    deps.append(previous[(i - 1) % n])
                current[i] = schedule.add_op(
                    ranks[i], ranks[(i + 1) % n], chunk, deps=deps, step=s
                )
            previous = current
        return schedule

    @classmethod
    def recursive_doubling_all_reduce(cls, n_endpoints, words_per_rank=20,
                                      base=None):
        """Recursive-doubling all-reduce: ``log2(n)`` exchange steps.

        At step ``s`` rank ``i`` exchanges its full accumulated vector
        with partner ``i XOR 2**s``; it may start once its own previous
        send was acknowledged (buffer reusable) *and* the previous
        step's message from its old partner arrived (data to combine).
        Latency-optimal for small vectors; requires a power-of-two rank
        count.
        """
        n = n_endpoints
        if n < 2 or n & (n - 1):
            raise ValueError("recursive doubling needs a power-of-two rank count")
        schedule = (
            base if base is not None else cls(n_endpoints, "rd-all-reduce")
        )
        previous = {}
        s = 0
        stride = 1
        while stride < n:
            current = {}
            for i in range(n):
                partner = i ^ stride
                deps = []
                if s > 0:
                    deps.append(previous[i])
                    deps.append(previous[i ^ (stride >> 1)])
                current[i] = schedule.add_op(
                    i, partner, words_per_rank, deps=deps, step=s
                )
            previous = current
            stride <<= 1
            s += 1
        return schedule

    @classmethod
    def all_to_all(cls, n_endpoints, words_per_pair=8):
        """All-to-all: ``n-1`` shifted-permutation rounds.

        Round ``s`` sends rank ``i``'s block to rank ``(i+s+1) mod n``;
        each rank serializes its own rounds (one outstanding block per
        rank), so round ``s`` depends on the rank's round-``s-1`` send.
        """
        n = n_endpoints
        if n < 2:
            raise ValueError("all-to-all needs at least 2 ranks")
        schedule = cls(n_endpoints, "all-to-all")
        previous = {}
        for s in range(n - 1):
            current = {}
            for i in range(n):
                deps = [previous[i]] if s > 0 else []
                current[i] = schedule.add_op(
                    i, (i + s + 1) % n, words_per_pair, deps=deps, step=s
                )
            previous = current
        return schedule

    @classmethod
    def pipeline_parallel(cls, n_endpoints, n_microbatches=4,
                          activation_words=20):
        """Pipeline parallelism: microbatches flow forward, then back.

        Ranks are pipeline stages.  Microbatch ``m``'s forward transfer
        out of stage ``k`` depends on its arrival from stage ``k-1``
        and on the stage's previous microbatch (a stage processes one
        microbatch at a time); the backward gradient pass retraces the
        pipe in reverse after the last forward hop.  The step tag is
        the hop index along the schedule, so the per-step report shows
        the fill/steady/drain phases of the pipe.
        """
        n = n_endpoints
        if n < 2:
            raise ValueError("a pipeline needs at least 2 stages")
        schedule = cls(n_endpoints, "pipeline")
        fwd = {}
        bwd = {}
        for m in range(n_microbatches):
            for k in range(n - 1):
                deps = []
                if k > 0:
                    deps.append(fwd[(m, k - 1)])
                if m > 0:
                    deps.append(fwd[(m - 1, k)])
                fwd[(m, k)] = schedule.add_op(
                    k, k + 1, activation_words, deps=deps, step=m + k
                )
            for j in range(n - 1):
                k = n - 1 - j  # gradient leaves stage k toward k-1
                deps = [fwd[(m, n - 2)]] if j == 0 else [bwd[(m, k + 1)]]
                if m > 0:
                    deps.append(bwd[(m - 1, k)])
                bwd[(m, k)] = schedule.add_op(
                    k, k - 1, activation_words,
                    deps=deps, step=m + (n - 1) + j,
                )
        return schedule


class ModelShape:
    """Layer sizes -> message sizes -> a per-step training schedule.

    The MockSim idea: drive the fabric from the *shape* of a model, not
    a rate.  ``layer_words`` lists each layer's gradient size in words;
    :meth:`schedule` emits one all-reduce per layer (sized by that
    layer's chunk) in reverse-layer order — the order backprop produces
    gradients — with each layer's collective gated on the previous
    one's completion, exactly how a serialized gradient bucketing
    runtime behaves.
    """

    def __init__(self, layer_words, algorithm="ring"):
        if not layer_words:
            raise ValueError("a model needs at least one layer")
        self.layer_words = list(layer_words)
        self.algorithm = algorithm

    def schedule(self, n_endpoints):
        generator = {
            "ring": CollectiveSchedule.ring_all_reduce,
            "recursive-doubling":
                CollectiveSchedule.recursive_doubling_all_reduce,
        }[self.algorithm]
        schedule = CollectiveSchedule(
            n_endpoints, "model-{}".format(self.algorithm)
        )
        barrier = []  # final ops of the previous layer's collective
        for layer, words in enumerate(reversed(self.layer_words)):
            first_op = len(schedule.ops)
            generator(n_endpoints, words_per_rank=words, base=schedule)
            # Serialize layers: every rank's first op of this layer
            # additionally waits for the previous layer's last step.
            if barrier:
                step0 = schedule.ops[first_op].step
                for op in schedule.ops[first_op:]:
                    if op.step == step0:
                        op.deps = tuple(op.deps) + tuple(barrier)
            last_step = schedule.ops[-1].step
            barrier = [
                op.op_id
                for op in schedule.ops[first_op:]
                if op.step == last_step
            ]
            for op in schedule.ops[first_op:]:
                op.step = (layer, op.step)
        return schedule


class _CollectiveState:
    """The live DAG bookkeeping, shared by sources and observer.

    One instance per workload, referenced by every per-endpoint source
    and by the observer — pickling the network (engine snapshots)
    preserves that shared identity, so a restored run resumes with the
    exact release frontier it was captured with.
    """

    def __init__(self, schedule):
        self.schedule = schedule
        self.remaining = []  # op_id -> undelivered dependency count
        self.succs = []      # op_id -> op_ids it gates
        self.ready = {}      # endpoint -> FIFO of released, unsent op_ids
        self.released_cycle = [None] * len(schedule.ops)
        self.done_cycle = [None] * len(schedule.ops)
        self.completed = 0
        self.failed = 0
        for op in schedule.ops:
            self.remaining.append(len(op.deps))
            self.succs.append([])
        for op in schedule.ops:
            for dep in op.deps:
                self.succs[dep].append(op.op_id)
        for op in schedule.ops:
            if not op.deps:
                self._release(op.op_id, 0)

    def _release(self, op_id, cycle):
        op = self.schedule.ops[op_id]
        self.ready.setdefault(op.src, []).append(op_id)
        self.released_cycle[op_id] = cycle

    @property
    def finished(self):
        return self.completed + self.failed >= len(self.schedule.ops)

    def stuck(self):
        """No released work left but the DAG is not finished.

        With the network quiet this means an op's delivery will never
        come (an abandoned message, or a release-bookkeeping bug) and
        the remaining subgraph is deadlocked.
        """
        return not self.finished and not any(self.ready.values())


class _CollectiveSource:
    """One endpoint's DAG frontier drain (picklable callable).

    Consumes no randomness per cycle — payloads are derived per-op —
    so polls are free and the ``next_arrival_cycle`` hint keeps the
    event-driven backends' idle compression alive: 0 (the distant
    past, blocking compression as long as released work is waiting)
    while the frontier is non-empty, +inf otherwise (the observer's
    next release can only follow network activity, which blocks
    compression by itself).
    """

    __slots__ = ("_workload", "_state", "_index")

    def __init__(self, workload, state, index):
        self._workload = workload
        self._state = state
        self._index = index

    def __call__(self, cycle):
        queue = self._state.ready.get(self._index)
        if not queue:
            return None
        op_id = queue.pop(0)
        return self._workload._message_for(op_id)

    def next_arrival_cycle(self):
        return 0 if self._state.ready.get(self._index) else float("inf")


class _CollectiveMessage(Message):
    """A schedule-op transfer: a Message that knows its op_id."""

    __slots__ = ("op_id",)

    def __init__(self, dest, payload, op_id):
        super().__init__(dest, payload)
        self.op_id = op_id


class CollectiveObserver:
    """Engine observer releasing DAG successors on delivery.

    Watches the shared :class:`~repro.endpoint.messages.MessageLog`
    through a cursor; each newly recorded *delivered* collective
    message marks its op done and decrements every successor's
    undelivered-dependency count, releasing those that reach zero onto
    their source endpoint's ready queue.  Abandoned collective
    messages mark the op failed (its successors stay gated — the
    workload reports the deadlock rather than silently skipping ops).

    The observer acts only when the log grows, and the log grows only
    through component activity — which blocks idle compression on its
    own — so :meth:`next_event_cycle` can always answer "no scheduled
    event" and ride compression jumps instead of vetoing them.

    Two seeded mutation hooks (tests only) break the release rule on
    purpose: ``workload-drop-dep-edge`` forgets the edge to an op's
    first successor, ``workload-premature-release`` releases
    successors on their first satisfied dependency instead of their
    last.  Both must be caught by the workload determinism harness
    (``tests/workloads/test_mutations.py``).
    """

    def __init__(self, state, log):
        self.state = state
        self.log = log
        self._cursor = 0

    def tick(self, cycle):
        messages = self.log.messages
        state = self.state
        while self._cursor < len(messages):
            message = messages[self._cursor]
            self._cursor += 1
            op_id = getattr(message, "op_id", None)
            if op_id is None or state.done_cycle[op_id] is not None:
                continue
            if message.outcome == DELIVERED:
                state.done_cycle[op_id] = message.done_cycle
                state.completed += 1
                self._release_successors(op_id, cycle)
            elif message.outcome == ABANDONED:
                state.done_cycle[op_id] = message.done_cycle
                state.failed += 1

    def _release_successors(self, op_id, cycle):
        state = self.state
        succs = state.succs[op_id]
        if (
            mutation.ACTIVE
            and mutation.enabled(mutation.WL_DROP_DEP_EDGE)
            and succs
        ):
            # Seeded bug: the delivery never reaches the first
            # successor — its dependency count stays pinned and the
            # downstream subgraph deadlocks.
            succs = succs[1:]
        for succ in succs:
            state.remaining[succ] -= 1
            released = state.remaining[succ] == 0
            if (
                mutation.ACTIVE
                and mutation.enabled(mutation.WL_PREMATURE_RELEASE)
                and not released
            ):
                # Seeded bug: first delivery releases the op, ahead of
                # the dependencies it was meant to wait for.
                released = state.released_cycle[succ] is None
            if released and state.released_cycle[succ] is None:
                state._release(succ, cycle)

    def next_event_cycle(self):
        """Compression hint: the observer schedules no events itself."""
        return float("inf")


class CollectiveWorkload:
    """Drives a :class:`CollectiveSchedule` on a live network.

    ``attach(network)`` installs a per-endpoint frontier source on
    every rank (TrafficSource-compatible: endpoints poll it exactly
    like any other generator) and registers the
    :class:`CollectiveObserver` with the engine.  The whole object —
    schedule, live DAG state, sources, observer — pickles with the
    network for snapshot/restore.

    :param schedule: the dependency DAG to execute.
    :param w: datapath word width (payload values are ``w``-bit).
    :param seed: payload randomness root (payloads are derived per-op
        from ``derive_seed(seed, "op", op_id)``, independent of
        execution order).
    """

    def __init__(self, schedule, w=8, seed=0):
        self.schedule = schedule
        self.w = w
        self.seed = seed
        self.state = _CollectiveState(schedule)
        self.generated = 0
        self.message_words = max((op.words for op in schedule.ops), default=0)

    def source_for(self, endpoint_index):
        return _CollectiveSource(self, self.state, endpoint_index)

    def attach(self, network):
        """Install sources on every rank and register the observer."""
        ranks = {op.src for op in self.schedule.ops}
        for endpoint in network.endpoints:
            if endpoint.index in ranks:
                endpoint.traffic_source = self.source_for(endpoint.index)
        network.engine.add_observer(CollectiveObserver(self.state, network.log))
        return self

    def _message_for(self, op_id):
        op = self.schedule.ops[op_id]
        rng = random.Random(derive_seed(self.seed, "op", op_id))
        self.generated += 1
        return _CollectiveMessage(
            dest=op.dest,
            payload=random_payload(rng, op.words, self.w),
            op_id=op_id,
        )

    @property
    def finished(self):
        return self.state.finished

    def result(self, network, label=None):
        return CollectiveResult(self, network, label=label)


class CollectiveResult:
    """Per-step completion times and straggler breakdown (plain data).

    Picklable and journal-hashable like every other trial result
    (:func:`~repro.harness.parallel.result_content_hash` applies), so
    collective points flow through the parallel
    :class:`~repro.harness.parallel.TrialRunner`, its cache and its
    crash journal unchanged.
    """

    quarantined = False
    metrics = None

    def __init__(self, workload, network, label=None):
        schedule = workload.schedule
        state = workload.state
        self.label = label or schedule.label
        self.algorithm = schedule.label
        self.n_endpoints = schedule.n_endpoints
        self.n_ops = len(schedule.ops)
        self.completed_ops = state.completed
        self.failed_ops = state.failed
        self.incomplete = not state.finished
        done = [c for c in state.done_cycle if c is not None]
        self.total_cycles = max(done) if done else None
        self.steps = self._step_rows(schedule, state)
        self.per_rank_done = self._per_rank(schedule, state)
        deliveries = [
            m for m in network.log.messages
            if getattr(m, "op_id", None) is not None
        ]
        attempts = [m.attempts for m in deliveries if m.outcome == DELIVERED]
        self.mean_attempts = (
            sum(attempts) / len(attempts) if attempts else float("nan")
        )
        self.log_digest = collective_log_digest(network.log)

    @staticmethod
    def _step_rows(schedule, state):
        rows = []
        for step in schedule.steps():
            ops = [op.op_id for op in schedule.ops if op.step == step]
            done = [state.done_cycle[o] for o in ops]
            released = [state.released_cycle[o] for o in ops]
            complete = all(c is not None for c in done)
            start = (
                min(r for r in released if r is not None)
                if any(r is not None for r in released)
                else None
            )
            rows.append({
                "step": step,
                "ops": len(ops),
                "released": start,
                "done": max(done) if complete else None,
                # Straggler skew: the slowest rank's finish minus the
                # fastest's, within the step.
                "skew": (max(done) - min(done)) if complete else None,
            })
        return rows

    @staticmethod
    def _per_rank(schedule, state):
        per_rank = {}
        for op in schedule.ops:
            done = state.done_cycle[op.op_id]
            if done is not None:
                prev = per_rank.get(op.src)
                per_rank[op.src] = done if prev is None else max(prev, done)
        return per_rank

    def max_step_skew(self):
        skews = [row["skew"] for row in self.steps if row["skew"] is not None]
        return max(skews) if skews else None

    def straggler_rank(self):
        """The rank whose last op finished latest, or None."""
        if not self.per_rank_done:
            return None
        return max(self.per_rank_done, key=lambda r: (self.per_rank_done[r], r))

    def content_hash(self):
        from repro.harness.cache import result_content_hash

        return result_content_hash(self)

    def as_dict(self):
        return {
            "label": self.label,
            "algorithm": self.algorithm,
            "ops": self.n_ops,
            "completed": self.completed_ops,
            "failed": self.failed_ops,
            "incomplete": self.incomplete,
            "total_cycles": self.total_cycles,
            "max_step_skew": self.max_step_skew(),
            "straggler_rank": self.straggler_rank(),
            "mean_attempts": self.mean_attempts,
            "log_digest": self.log_digest,
        }

    def __repr__(self):
        return "<CollectiveResult {} {}/{} ops in {} cycles>".format(
            self.label, self.completed_ops, self.n_ops, self.total_cycles
        )


def collective_log_digest(log):
    """A stable hash of every observable fact about the run's messages.

    Built on :func:`repro.endpoint.messages.message_fingerprint`, so
    "two runs produced this digest" means byte-identical trajectories
    — the check the cross-backend and serial-vs-parallel acceptance
    tests pin.
    """
    material = repr(sorted(message_fingerprint(log)["messages"]))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def run_collective(network, workload, max_cycles=200000, label=None):
    """Execute ``workload`` on ``network`` to completion (or deadlock).

    Attaches the workload and hands off to :func:`finish_collective`.
    Returns a :class:`CollectiveResult`.
    """
    workload.attach(network)
    return finish_collective(
        network, workload, max_cycles=max_cycles, label=label
    )


#: Cycles per engine ``run`` slice of :func:`finish_collective`.
CHUNK = 256


def finish_collective(network, workload, max_cycles=200000, label=None):
    """Drive an already-attached workload to completion (or deadlock).

    The resume half of :func:`run_collective`: a network restored from
    a mid-workload engine snapshot comes back with its sources and
    observer already wired (shared identity through the pickle), so
    only the drive loop remains.  Runs the engine in :data:`CHUNK`-cycle
    slices (compression-friendly: plain ``run`` slices, never an
    opaque ``run_until`` predicate) until the DAG finishes, the cycle
    budget runs out, or the DAG is provably stuck (network quiet,
    nothing released, ops remaining — the abandoned-message /
    seeded-bug case).
    """
    spent = 0
    while not workload.finished and spent < max_cycles:
        step = min(CHUNK, max_cycles - spent)
        network.run(step)
        spent += step
        if (
            workload.state.stuck()
            and network.run_until_quiet(max_cycles=0)
        ):
            break
    if workload.finished:
        # Let the receive-side FSMs of the final transfers close.
        network.run_until_quiet(max_cycles=max_cycles, settle=8)
    return workload.result(network, label=label)
