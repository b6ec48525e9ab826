#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation in one run.

Prints the Fig. 7/8/9/10 series, the abstract's headline numbers, and the
three worked micro-examples (Fig. 1, 3, 4/5), at the paper's §VI-A scale
(4 applications x 30 jobs each).

Usage::

    python examples/reproduce_paper.py
"""

from repro.experiments.figures import (
    figure7_locality,
    figure8_jct,
    figure9_input_stage,
    figure10_scheduler_delay,
    headline_numbers,
)
from repro.experiments.scenarios import (
    fig1_motivating_example,
    fig3_interapp_example,
    fig45_intraapp_example,
)
from repro.metrics.report import format_table


def main() -> None:
    scale = dict(jobs_per_app=30, num_apps=4, seed=0)
    print("Scale: 4 apps x 30 jobs (paper scale)\n")

    # ------------------------------------------------------- micro-examples
    fig1 = fig1_motivating_example()
    print(
        format_table(
            ["app", "data-unaware", "data-aware"],
            [[a, fig1.data_unaware[a], fig1.data_aware[a]] for a in sorted(fig1.data_unaware)],
            title="Fig. 1 — motivating example (task locality fraction)",
        ),
        end="\n\n",
    )
    fig3 = fig3_interapp_example()
    print(
        format_table(
            ["app", "naive fair", "locality fair"],
            [[a, fig3.naive_fair[a], fig3.locality_fair[a]] for a in sorted(fig3.naive_fair)],
            title="Fig. 3 — local jobs per app under inter-app strategies",
        ),
        end="\n\n",
    )
    fig45 = fig45_intraapp_example()
    print(
        format_table(
            ["strategy", "avg JCT (time units)"],
            [["fairness-based", fig45.fairness_avg], ["priority-based", fig45.priority_avg]],
            title="Fig. 5 — intra-app strategies (paper: 2.0 vs 1.25)",
        ),
        end="\n\n",
    )

    # --------------------------------------------------------------- figures
    print("Running Fig. 7/8 sweeps (3 workloads x 3 cluster sizes x 2 managers)...\n")
    rows7 = figure7_locality(**scale)
    print(
        format_table(
            ["cluster", "workload", "spark loc%", "custody loc%", "gain%"],
            [
                [r["cluster_size"], r["workload"], 100 * r["spark_locality"],
                 100 * r["custody_locality"], 100 * r["gain"]]
                for r in rows7
            ],
            title="Fig. 7 — % local input tasks",
        ),
        end="\n\n",
    )
    rows8 = figure8_jct(**scale)
    print(
        format_table(
            ["cluster", "workload", "spark JCT", "custody JCT", "reduction%"],
            [
                [r["cluster_size"], r["workload"], r["spark_jct"], r["custody_jct"],
                 100 * r["reduction"]]
                for r in rows8
            ],
            title="Fig. 8 — average job completion time (s)",
        ),
        end="\n\n",
    )
    rows9 = figure9_input_stage(**scale)
    print(
        format_table(
            ["workload", "spark input stage", "custody input stage"],
            [[r["workload"], r["spark_input_stage"], r["custody_input_stage"]] for r in rows9],
            title="Fig. 9 — average input-stage time, 100 nodes (s)",
        ),
        end="\n\n",
    )
    rows10 = figure10_scheduler_delay(**scale)
    print(
        format_table(
            ["cluster", "spark delay", "custody delay"],
            [[r["cluster_size"], r["spark_delay"], r["custody_delay"]] for r in rows10],
            title="Fig. 10 — average scheduler delay (s)",
        ),
        end="\n\n",
    )

    headline = headline_numbers(**scale)
    print(
        format_table(
            ["metric", "paper", "measured"],
            [
                ["locality gain %", 36.9, 100 * headline["locality_gain_mean"]],
                ["JCT reduction %", 14.9, 100 * headline["jct_reduction_mean"]],
            ],
            title="Headline numbers (100-node cluster, 3-workload mean)",
        )
    )


if __name__ == "__main__":
    main()
