"""Chip statistics reporting.

Aggregates the counters every subsystem keeps (cache hit rates, memory
controller traffic and occupancy, MPB traffic, per-segment access mix,
power draw) into one structured report — the simulator's answer to the
performance-counter infrastructure the related work (Bellosa &
Steckermeier [3], Weissman [31]) builds on.
"""

from repro.obs.metrics import series_value


def chip_report(chip, active_cores=None):
    """A nested dict of every counter worth looking at.

    Built entirely from the chip's metrics-registry snapshot — the one
    unified counter surface — rather than reaching into component
    internals; the rendered output is unchanged (golden-tested).
    """
    snapshot = chip.metrics.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    cores = set(active_cores) if active_cores is not None \
        else set(range(chip.config.num_cores))
    report = {
        "config": {
            "cores": chip.config.num_cores,
            "core_freq_mhz": chip.config.core_freq_mhz,
            "mesh_freq_mhz": chip.config.mesh_freq_mhz,
            "dram_freq_mhz": chip.config.dram_freq_mhz,
        },
        "cores": {},
        "controllers": {},
        "mpb": {
            "reads": series_value(counters, "scc_mpb_reads"),
            "writes": series_value(counters, "scc_mpb_writes"),
            "bytes_moved": series_value(counters,
                                        "scc_mpb_bytes_moved"),
        },
        "power_watts": series_value(gauges, "scc_power_watts"),
    }

    # cores with any priced access, from the per-segment access mix
    mixes = {}
    for row in counters.get("scc_core_accesses", ()):
        core = row["labels"]["core"]
        if core in cores:
            mixes.setdefault(core, {})[row["labels"]["segment"]] = \
                row["value"]
    for core in sorted(mixes):
        stats = {"accesses": mixes[core]}
        for level in ("l1", "l2"):
            hits = series_value(counters, "scc_cache_hits",
                                core=core, level=level)
            misses = series_value(counters, "scc_cache_misses",
                                  core=core, level=level)
            accesses = hits + misses
            stats["%s_accesses" % level] = accesses
            stats["%s_hit_rate" % level] = \
                hits / accesses if accesses else 0.0
        report["cores"][core] = stats

    # per-segment mesh-link traffic and per-owner MPB traffic: both
    # opt-in recordings (`repro run --bottlenecks` turns them on),
    # so these tables are empty — and render nothing — on normal runs
    mesh_segments = {}
    for row in counters.get("scc_mesh_segment_traffic", ()):
        link = row["labels"]["link"]
        mesh_segments.setdefault(link, {})[
            row["labels"]["segment"]] = row["value"]
    report["mesh_segments"] = mesh_segments
    mpb_owners = {}
    for metric, field in (("scc_mpb_owner_reads", "reads"),
                          ("scc_mpb_owner_writes", "writes"),
                          ("scc_mpb_owner_bytes", "bytes")):
        for row in counters.get(metric, ()):
            owner = row["labels"]["owner"]
            mpb_owners.setdefault(
                owner, {"reads": 0, "writes": 0, "bytes": 0})[field] = \
                row["value"]
    report["mpb_owners"] = mpb_owners

    for row in counters.get("scc_dram_reads", ()):
        controller = row["labels"]["controller"]
        report["controllers"][controller] = {
            "reads": row["value"],
            "writes": series_value(counters, "scc_dram_writes",
                                   controller=controller),
            "busy_cycles": series_value(counters,
                                        "scc_dram_busy_cycles",
                                        controller=controller),
            "active_requesters": series_value(
                gauges, "scc_dram_active_requesters",
                controller=controller),
        }
    return report


def render_report(report):
    """Human-readable rendering of :func:`chip_report`."""
    lines = []
    config = report["config"]
    lines.append("chip: %d cores @ %d MHz (mesh %d, DDR3 %d)"
                 % (config["cores"], config["core_freq_mhz"],
                    config["mesh_freq_mhz"], config["dram_freq_mhz"]))
    lines.append("power: %.1f W" % report["power_watts"])
    if report["cores"]:
        lines.append("cores:")
        for core, stats in sorted(report["cores"].items()):
            mix = ", ".join("%s=%d" % (kind, count)
                            for kind, count
                            in sorted(stats["accesses"].items()))
            lines.append("  core %2d: L1 %5.1f%% of %-8d L2 %5.1f%% "
                         "of %-8d [%s]"
                         % (core, 100 * stats["l1_hit_rate"],
                            stats["l1_accesses"],
                            100 * stats["l2_hit_rate"],
                            stats["l2_accesses"], mix))
    if report["controllers"]:
        lines.append("memory controllers:")
        for index, stats in sorted(report["controllers"].items()):
            lines.append("  MC%d: %d reads, %d writes, %d busy cycles, "
                         "%d active requesters"
                         % (index, stats["reads"], stats["writes"],
                            stats["busy_cycles"],
                            stats["active_requesters"]))
    mpb = report["mpb"]
    if mpb["reads"] or mpb["writes"]:
        lines.append("mpb: %d reads, %d writes, %d bytes"
                     % (mpb["reads"], mpb["writes"],
                        mpb["bytes_moved"]))
    if report.get("mesh_segments"):
        lines.append("mesh link traffic by segment (hops):")
        segments = sorted({segment
                           for per_link in report["mesh_segments"].values()
                           for segment in per_link})
        lines.append("  %-16s %s" % ("link", "  ".join(
            "%8s" % segment for segment in segments)))
        for link, per_link in sorted(report["mesh_segments"].items()):
            lines.append("  %-16s %s" % (link, "  ".join(
                "%8d" % per_link.get(segment, 0)
                for segment in segments)))
    if report.get("mpb_owners"):
        lines.append("mpb traffic by owning core:")
        lines.append("  %-8s %8s %8s %10s"
                     % ("owner", "reads", "writes", "bytes"))
        for owner, stats in sorted(report["mpb_owners"].items()):
            lines.append("  core %-3d %8d %8d %10d"
                         % (owner, stats["reads"], stats["writes"],
                            stats["bytes"]))
    return "\n".join(lines)
