"""Assemble EXPERIMENTS.md from recorded benchmark tables.

Run after ``pytest benchmarks/ --benchmark-only``::

    python scripts/build_experiments.py

Reads ``bench_results/*.txt`` (the formatted tables each benchmark wrote)
and splices them, with per-experiment commentary, between the MEASURED
RESULTS markers of EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import sys

RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", "bench_results")
TARGET = "EXPERIMENTS.md"
START = "<!-- MEASURED RESULTS START -->"
END = "<!-- MEASURED RESULTS END -->"

#: experiment id -> (section heading, paper-reported shape, commentary)
SECTIONS = [
    ("fig2_imdb", "Figure 2 — IMDB (quality / setup / per-query time)",
     "Paper: ASQP-RL 0.64±0.06 (60 min setup), ASQP-Light 0.53 (32 min), "
     "VAE 0.0025, best non-ASQP baseline VERD 0.471; GRE never finished.",
     "Reproduced shape: ASQP-RL tops the table; ASQP-Light trades ~15-25% "
     "quality for roughly half the setup; the VAE's fabricated tuples score "
     "~0; BRT hits its scaled budget. GRE does not: it now scores every "
     "candidate exactly in one pass per pick and completes in about 1.6 s "
     "(its row was re-run alone by a direct call of this protocol; it read "
     "0.000, TIMEOUT, when every pick rescanned the candidates), at 0.728, "
     "second to ASQP-RL's 0.737. Differences: at our "
     "budget-to-data ratio the workload-agnostic baselines (RAN/VERD/SKY/QRD)"
     " collapse toward zero instead of the paper's mid-pack scores — see "
     "docs/datasets.md. SKY's setup seconds were re-run alone by a direct "
     "call of this protocol after its skyline layers became numpy blocks "
     "(50.7 → 1.5 s here, 17.4 → 0.6 s on MAS; its picks and score are "
     "unchanged)."),
    ("fig2_mas", "Figure 2 — MAS",
     "Paper: ASQP-RL 0.754, ASQP-Light 0.61, GRE (the best baseline) 0.518.",
     "Reproduced shape: not the paper's ordering on this dataset. GRE, "
     "which now completes (1.1 s, re-run alone like the IMDB row; it read "
     "0.423, TIMEOUT, before), scores 0.786, above the committed ASQP-RL "
     "row (0.681), so \"ASQP-RL tops the table\" is not reproduced here; "
     "the paper also has GRE as MAS's best baseline (0.518). ASQP-RL is "
     "still above every other baseline."),
    ("fig3_imdb", "Figure 3 — RL ablation (IMDB)",
     "Paper: GSL/full 0.64 > GSL−ppo 0.536 > GSL−ppo−ac 0.496; DRP ~0.36; "
     "hybrid in between.",
     "Not reproduced at one seed (PYTHONHASHSEED=0): DRP/full 0.667 edges "
     "GSL/full 0.665, so the bench's GSL > DRP assertion fails. The DRP "
     "variants score the drop-one process's own episode outcome "
     "(environment-faithful inference), now counted over one refcounted "
     "selection: a swap no longer drops a tuple another selected group "
     "holds, which had shrunk DRP's sets to 879-898 tuples and its scores "
     "to 0.513 / 0.401 / 0.452. Counted correctly DRP holds 1009-1025 "
     "tuples (|S|), over k = 1000, since DRP is not trimmed to k while "
     "GSL's Alg. 2 sets hold exactly k. GSL rows are unchanged by the fix; "
     "−ppo (0.691) sits above the full agent (0.665) and −ppo −ac (0.636) "
     "below it."),
    ("fig3_mas", "Figure 3 — RL ablation (MAS)",
     "Paper: GSL/full 0.754 > ablations; DRP worst.",
     "Not reproduced at one seed (PYTHONHASHSEED=0): DRP/full 0.727 beats "
     "GSL/full 0.653 while holding 463 tuples against k = 500, so the "
     "overshoot of k does not explain it; the bench's GSL > DRP assertion "
     "fails. Before the refcount fix DRP reported 0.589 / 0.393 / 0.431 "
     "over 397-466 tuples. GSL rows are unchanged by the fix; "
     "DRP+GSL/full (0.389) is the worst row."),
    ("fig4_direct_query_cost", "Figure 4 — problem justification",
     "Paper: cumulative average direct-query latency passes 5 hours after "
     "seven queries at the 1 GB scale.",
     "Not reproduced at this scale: a direct query on the in-memory engine "
     "costs milliseconds even on the x64 database (488k rows), not the "
     "paper's minutes. The database grows as disjoint copies "
     "(`Database.scale` offsets each copy's key columns), so every query "
     "returns exactly f times its x1 rows, and the tail's cumulative mean "
     "grows about 12x from x1 to x64. The recording before these copies "
     "(x1-x8, 0.6 to 592 ms) rose with join fan-out: copy i joined every "
     "copy, so a j-way join's output grew as f^j."),
    ("fig5_estimator", "Figure 5 — answerability estimator",
     "Paper: 0.90 precision / 0.95 recall at full training access; "
     "0.75 / 0.85 at 50%.",
     "Reproduced shape: strong detector at full access, graceful degradation "
     "with less training visibility."),
    ("fig5_full_system", "Figure 5 — full-system variants",
     "Paper: querying the DB below predicted score 0.6 lifts the average "
     "score to 85% at ~24 min/query; below 0.8 to 76%.",
     "Reproduced shape: both thresholds lift average answer quality above "
     "approximation-only at higher per-query latency."),
    ("fig6_no_workload", "Figure 6 — no-workload mode (FLIGHTS)",
     "Paper: quality climbs across iterations to ~90%, vs QRD <70% and RAN "
     "below that.",
     "Reproduced shape: generated-workload training starts adequate and "
     "fine-tuning on each batch of user queries lifts quality above both "
     "no-workload baselines."),
    ("fig7_finetune", "Figure 7 — fine-tuning after interest drift",
     "Paper: rapid quality recovery on each newly introduced query cluster.",
     "Reproduced shape: each fine-tuning stage sharply lifts the newly "
     "revealed cluster while earlier clusters are retained."),
    ("fig8_memory_k", "Figure 8 — quality vs memory budget k",
     "Paper: ASQP-RL reaches 80% at k=15k, double GRE and +20% over SKY/QRD; "
     "all methods improve with k.",
     "Reproduced shape: monotone in k for every method, ASQP-RL on top at "
     "the largest budget."),
    ("fig9_frame_f", "Figure 9 — quality vs frame size F",
     "Paper: larger F makes the problem harder for everyone (SKY 0.4→0.2); "
     "ASQP-RL consistently on top.",
     "Reproduced shape: decreasing curves, ASQP-RL competitive at every F."),
    ("fig10_train_size", "Figure 10 — training-set fraction",
     "Paper: quality degrades gracefully as fewer training queries execute; "
     "training time drops to ~30 minutes.",
     "Reproduced shape: graceful quality decay; the time effect is flatter "
     "here because query execution is cheap relative to RL iterations in "
     "this simulator. The JSON's comparison baselines: TOP 0.587 (0.577 "
     "before TOP stopped depending on the hash seed; re-run alone by a "
     "direct call of this protocol), QUIK 0.497."),
    ("fig11_entropy_coef", "Figure 11 — entropy coefficient",
     "Paper: entropy coefficient is the crucial knob; 0.001 chosen.",
     "Reproduced: all settings train; sensitivity is milder at this network "
     "scale."),
    ("fig11_learning_rate", "Figure 11 — learning rate", "", ""),
    ("fig11_kl_coef", "Figure 11 — KL coefficient",
     "Paper: comparatively flat in the KL coefficient.", ""),
    ("fig12_aggregates", "Figure 12 — aggregate AQP vs gAQP and DeepDB",
     "Paper: no engine dominates; ASQP-RL attains the lowest error on half "
     "the operator classes and is comparable elsewhere.",
     "Reproduced shape: ASQP-RL (with self-calibrated COUNT/SUM rescaling) "
     "is best or near-best on several classes; the SPN is strongest on "
     "plain counts, as expected for a dedicated single-table estimator."),
    ("diversity", "§6.2 — answer diversity",
     "Paper: full-DB diversity 58%, ASQP-RL 52%, ≥14% above any baseline, "
     "with RAN the closest diversity competitor but far worse quality.",
     "Reproduced shape: ASQP-RL's diversity is within a few points of the "
     "full database while holding the best quality among selections. The "
     "TOP row was re-run alone by a direct call of this protocol after TOP "
     "stopped depending on the hash seed: 0.960 / 0.545 before, "
     "0.959 / 0.575 after."),
    ("ablation_design", "Design ablation (reproduction-specific)",
     "Not a paper figure — justifies this reproduction's own choices "
     "(telescoped rewards, exact-row priority, best-of-N inference).", ""),
]


def render(results_dir: str = RESULTS_DIR) -> tuple[str, list[str]]:
    """``(block, missing)``: the text from :data:`START` to :data:`END`
    that the recorded tables in ``results_dir`` make, and the experiments
    that have none."""
    blocks = []
    missing = []
    for experiment, heading, paper, note in SECTIONS:
        path = os.path.join(results_dir, f"{experiment}.txt")
        if not os.path.exists(path):
            missing.append(experiment)
            continue
        with open(path) as handle:
            table = handle.read().rstrip()
        parts = [f"### {heading}", ""]
        if paper:
            cleaned = paper[len("Paper: "):] if paper.startswith("Paper: ") else paper
            parts += [f"**Paper:** {cleaned}", ""]
        parts += ["```", table, "```", ""]
        if note:
            parts += [note, ""]
        blocks.append("\n".join(parts))
    return "\n".join([START, "", *blocks, END]), missing


def main() -> int:
    block, missing = render()
    with open(TARGET) as handle:
        text = handle.read()
    head, _, rest = text.partition(START)
    _, _, tail = rest.partition(END)
    with open(TARGET, "w") as handle:
        handle.write(head + block + tail)
    print(f"wrote {len(SECTIONS) - len(missing)} sections to {TARGET}"
          + (f"; missing: {missing}" if missing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
