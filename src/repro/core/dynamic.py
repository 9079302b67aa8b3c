"""Dynamic (runtime) shared-data detection — the related-work
comparator.

The paper argues for *compile-time* identification of shared data and
contrasts it with runtime detectors that "require multiple runs of the
application" (§1, §2).  This module implements such a detector: run the
multithreaded program once on the single-core pthread baseline with the
race detector attached, and report every variable its variable map saw
physically touched by more than one thread — block builtins
(``memset``, ``memcpy``, ``strcpy``) included.

Its purpose here is validation: the static Stages 1-3 must produce a
**conservative superset** — every dynamically-shared variable must be
statically classified shared (soundness), while the static set may be
larger (conservatism).  ``compare_static_dynamic`` computes both sides;
the property is asserted over the whole benchmark corpus in
``tests/integration/test_superset_property.py`` and measured in
``benchmarks/bench_ablation_superset.py``.
"""

from repro.race import RaceDetector
from repro.sim.runner import run_pthread_single_core
from repro.core.framework import TranslationFramework


class SharingComparison:
    """Static-vs-dynamic sharing sets for one program."""

    def __init__(self, static_shared, dynamic_shared):
        self.static_shared = static_shared      # set of (function, name)
        self.dynamic_shared = dynamic_shared

    @property
    def is_conservative_superset(self):
        """Soundness: nothing dynamically shared was missed."""
        return self.dynamic_shared <= self.static_shared

    @property
    def missed(self):
        """Dynamically shared but statically private: unsound misses."""
        return self.dynamic_shared - self.static_shared

    @property
    def overapproximation(self):
        """Statically shared but never observed shared: the price of
        compile-time conservatism."""
        return self.static_shared - self.dynamic_shared

    @property
    def tightness(self):
        """|dynamic| / |static| in [0, 1]; 1.0 = perfectly tight."""
        if not self.static_shared:
            return 1.0
        return len(self.dynamic_shared & self.static_shared) / \
            len(self.static_shared)

    def __repr__(self):
        return ("SharingComparison(static=%d, dynamic=%d, missed=%d, "
                "tightness=%.2f)" % (len(self.static_shared),
                                     len(self.dynamic_shared),
                                     len(self.missed), self.tightness))


def detect_dynamic_sharing(source, max_steps=200_000_000):
    """Run the Pthreads program (source text or parsed unit) once and
    return the ``(function, name)`` keys of the variables touched by
    more than one thread."""
    detector = RaceDetector()
    run_pthread_single_core(source, max_steps=max_steps, race=detector)
    return detector.shared_keys()


def static_shared_set(source):
    """Stage 1-3's shared superset, as (function, name) keys."""
    result = TranslationFramework().analyze(source)
    return {(info.function, info.name)
            for info in result.variables if info.is_shared}


def compare_static_dynamic(source, max_steps=200_000_000):
    """Full comparison for one program (source text or parsed unit)."""
    return SharingComparison(static_shared_set(source),
                             detect_dynamic_sharing(source, max_steps))
