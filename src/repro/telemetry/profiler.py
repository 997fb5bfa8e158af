"""A lightweight profiler for the simulator itself.

Where does a simulated cycle's wall-clock time go — routers,
endpoints, channel shifting, observers?  :class:`SimProfiler` answers
without external tooling: it wraps every registered component's
``tick`` (and every channel's ``advance``) with a
``perf_counter``-based accumulator keyed by component class, runs the
engine normally (deadlines, stop requests and pre-cycle hooks all
behave as usual), then restores the original methods and reports.

The numbers include the wrapper's own overhead (~a closure call and
two clock reads per tick), so treat them as *relative* shares rather
than absolute nanoseconds; the unwrapped ``host_cycles_per_s`` of
``python3 bench/run.py`` remains the ground truth for throughput.
Allocation counts come from :func:`sys.getallocatedblocks` deltas
(CPython; reported as None elsewhere).
"""

import sys
import time


class ClassProfile:
    """Accumulated tick statistics for one component class."""

    __slots__ = ("class_name", "instances", "ticks", "seconds")

    def __init__(self, class_name):
        self.class_name = class_name
        self.instances = 0
        self.ticks = 0
        self.seconds = 0.0

    @property
    def us_per_tick(self):
        return 1e6 * self.seconds / self.ticks if self.ticks else 0.0


class ProfileReport:
    """The result of one :meth:`SimProfiler.profile` run."""

    def __init__(self, classes, cycles, wall_seconds, alloc_blocks):
        #: class name -> :class:`ClassProfile`, including the synthetic
        #: "Channel.advance" entry for channel pipeline shifting.
        self.classes = classes
        self.cycles = cycles
        self.wall_seconds = wall_seconds
        #: ``sys.getallocatedblocks`` delta over the run (None off CPython).
        self.alloc_blocks = alloc_blocks

    @property
    def cycles_per_second(self):
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def total_ticks(self):
        return sum(profile.ticks for profile in self.classes.values())

    @property
    def accounted_seconds(self):
        return sum(profile.seconds for profile in self.classes.values())

    def rows(self):
        """Table rows, most expensive class first."""
        accounted = self.accounted_seconds or 1.0
        ordered = sorted(
            self.classes.values(), key=lambda p: -p.seconds
        )
        return [
            {
                "component": profile.class_name,
                "instances": profile.instances,
                "ticks": profile.ticks,
                "total_ms": 1e3 * profile.seconds,
                "us_per_tick": profile.us_per_tick,
                "share_pct": 100.0 * profile.seconds / accounted,
            }
            for profile in ordered
        ]

    def format(self):
        # Imported here, not at module level: reporting lives in the
        # harness package, which itself imports telemetry lazily.
        from repro.harness.reporting import format_table

        header = (
            "{} cycles in {:.3f}s -> {:.0f} cycles/s "
            "({:.0f}% of wall time inside ticks{})".format(
                self.cycles,
                self.wall_seconds,
                self.cycles_per_second,
                100.0 * self.accounted_seconds / self.wall_seconds
                if self.wall_seconds
                else 0.0,
                ", {:+d} alloc blocks".format(self.alloc_blocks)
                if self.alloc_blocks is not None
                else "",
            )
        )
        return header + "\n" + format_table(
            self.rows(), floatfmt="{:.2f}", title=None
        )

    def __repr__(self):
        return "<ProfileReport {} cycles, {:.0f} cycles/s>".format(
            self.cycles, self.cycles_per_second
        )


class _ChannelTimer:
    """Stand-in placed in ``engine.channels`` while profiling.

    Channels declare ``__slots__`` (they are the most numerous objects
    in a simulation), so their ``advance`` cannot be wrapped in place;
    the profiler swaps these proxies into the engine's channel list for
    the duration of the run instead.
    """

    __slots__ = ("channel", "profile")

    def __init__(self, channel, profile):
        self.channel = channel
        self.profile = profile

    def advance(self):
        start = time.perf_counter()
        self.channel.advance()
        self.profile.seconds += time.perf_counter() - start
        self.profile.ticks += 1


class SimProfiler:
    """Profiles one engine's component ticks by class.

    >>> profiler = SimProfiler(network.engine)
    >>> report = profiler.profile(cycles=400)
    >>> print(report.format())
    """

    def __init__(self, engine):
        self.engine = engine

    def profile(self, cycles=None, run=None):
        """Run and measure; returns a :class:`ProfileReport`.

        Pass ``cycles`` to drive ``engine.run(cycles)``, or ``run`` (a
        zero-argument callable exercising the engine arbitrarily —
        e.g. ``network.run_until_quiet``) for custom loops.  Exactly
        one must be provided.
        """
        if (cycles is None) == (run is None):
            raise ValueError("provide exactly one of cycles= or run=")
        engine = self.engine
        profiles = {}

        def class_profile(name):
            profile = profiles.get(name)
            if profile is None:
                profile = ClassProfile(name)
                profiles[name] = profile
            return profile

        wrapped = []
        for component in list(engine.components) + list(engine.observers):
            profile = class_profile(type(component).__name__)
            profile.instances += 1
            original = component.tick

            def timed_tick(cycle, _original=original, _profile=profile):
                start = time.perf_counter()
                _original(cycle)
                _profile.seconds += time.perf_counter() - start
                _profile.ticks += 1

            component.tick = timed_tick
            wrapped.append(component)

        channel_profile = class_profile("Channel.advance")
        channel_profile.instances = len(engine.channels)
        saved_channels = engine.channels
        engine.channels = [
            _ChannelTimer(channel, channel_profile)
            for channel in saved_channels
        ]

        get_blocks = getattr(sys, "getallocatedblocks", None)
        start_cycle = engine.cycle
        blocks_before = get_blocks() if get_blocks else None
        wall_start = time.perf_counter()
        try:
            if cycles is not None:
                engine.run(cycles)
            else:
                run()
        finally:
            wall = time.perf_counter() - wall_start
            engine.channels = saved_channels
            for component in wrapped:
                del component.tick  # restore the class method
        alloc = (get_blocks() - blocks_before) if get_blocks else None
        return ProfileReport(
            profiles, engine.cycle - start_cycle, wall, alloc
        )


def profile_engine(engine, cycles):
    """One-shot convenience: profile ``cycles`` on ``engine``."""
    return SimProfiler(engine).profile(cycles=cycles)
