"""Seeded synthetic inputs for the benchmark workloads.

``generate(workload, seed, root, size)`` writes series-matrix text,
annotation TSVs, GMT files and dataset directories under ``root`` and
returns the ``truth`` the output checks need (planted genes, expected
summary counts).  The same (workload, seed, size) writes the same bytes.
The CLI receives only the files; nothing here imports rankmerge.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

# common features of the source paper's merged studies
N_GENES = 15562

SIZES = {
    "merge-test": {
        "full": {"genes": N_GENES, "samples": (10, 12, 14), "planted": 300,
                 "sets": 200},
        "smoke": {"genes": 300, "samples": (12, 12, 14), "planted": 30,
                  "sets": 12},
    },
    "coexpr-pairwise": {
        "full": {"rows": 2000, "samples": 240, "modules": 20, "module_size": 40,
                 "pca_features": 30},
        "smoke": {"rows": 120, "samples": 24, "modules": 4, "module_size": 10,
                  "pca_features": 8},
    },
    "small-cohort": {
        "full": {"genes": N_GENES, "samples": 12, "planted": 200,
                 "subset": 450},
        "smoke": {"genes": 300, "samples": 12, "planted": 20, "subset": 40},
    },
}

STATUS_FIELD = "Sample_characteristics_ch1"
# ingest names a repeated metadata key with a ".1" suffix
SUBTYPE_FIELD = "Sample_characteristics_ch1.1"
TISSUE_FIELD = "tissue"
TISSUES = ("brain", "kidney", "liver")


def gene_names(n: int) -> list[str]:
    return [f"GENE{i:05d}" for i in range(1, n + 1)]


def _fmt_round(decimals: int):
    return lambda v: f"{v:.{decimals}f}"


def _table_lines(names, values: np.ndarray, fmt, missing: str) -> list[str]:
    lines = []
    for name, row in zip(names, values.tolist()):
        cells = [missing if math.isnan(v) else fmt(v) for v in row]
        lines.append("\t".join([name] + cells))
    return lines


def _write(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_series(path: Path, accession: str, samples, fields, probes,
                  values, fmt) -> None:
    lines = [f'!Series_title\t"Synthetic study {accession}"',
             f'!Series_geo_accession\t"{accession}"']
    lines.append("\t".join(["!Sample_geo_accession"]
                           + [f'"{s}"' for s in samples]))
    for key, cells in fields:
        lines.append("\t".join([f"!{key}"] + [f'"{c}"' for c in cells]))
    lines.append("!series_matrix_table_begin")
    lines.append("\t".join(['"ID_REF"'] + [f'"{s}"' for s in samples]))
    lines += _table_lines(probes, values, fmt, "null")
    lines.append("!series_matrix_table_end")
    _write(path, lines)


def _write_dataset(root: Path, name: str, score: str, row_names, samples,
                   values, info_fields) -> None:
    """A dataset directory in the CLI's on-disk format (version 1)."""
    root.mkdir(parents=True, exist_ok=True)
    header = "\t".join(["feature"] + list(samples))
    _write(root / "data.tsv",
           [header] + _table_lines(row_names, values, repr, "NA"))
    _write(root / "info.tsv",
           ["\t".join(["field"] + list(samples))]
           + ["\t".join([f] + list(cells)) for f, cells in info_fields])
    manifest = {"name": name, "version": 1, "score": score,
                "source": "synthetic", "seed": None}
    with open(root / "manifest.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _study(rng, accession: str, genes: list[str], base, spread, planted,
           case, missing: float, scale, fmt, fields, path: Path,
           annotation: Path, dup_share: float,
           unmapped_share: float) -> tuple[dict, np.ndarray]:
    """One series-matrix study plus its platform annotation.

    Every gene gets a main probe.  A share of genes get one or two
    attenuated duplicate probes (some annotated with a second symbol), so
    that ``reduce_duplicates`` has work; extra probes map to no symbol.
    """
    g, n = len(genes), len(case)
    x = base[:, None] + spread[:, None] * rng.standard_normal((g, n))
    x[np.ix_(planted, case)] += 2.5 * spread[planted, None]

    dup_genes = np.flatnonzero(rng.random(g) < dup_share)
    dup_rows, dup_symbols = [], []
    for k, gi in enumerate(dup_genes):
        for _ in range(1 + (k % 3 == 0)):
            noise = 0.1 * spread[gi] * rng.standard_normal(n)
            dup_rows.append(base[gi] + 0.4 * (x[gi] - base[gi]) + noise)
            other = genes[int(rng.integers(g))]
            dup_symbols.append(genes[gi] + (f" /// {other}" if k % 5 == 0
                                            else ""))
    n_unmapped = int(unmapped_share * g)
    unmapped = base[rng.integers(g, size=n_unmapped), None] \
        + rng.standard_normal((n_unmapped, n))

    values = np.vstack([x] + ([np.array(dup_rows)] if dup_rows else [])
                       + [unmapped])
    symbols = genes + dup_symbols + [""] * n_unmapped
    values = scale(values)
    values[rng.random(values.shape) < missing] = np.nan
    empty = np.isnan(values).all(axis=1)
    values[empty, 0] = scale(base[:1])[0]
    main = values[:g]

    order = rng.permutation(len(symbols))
    prefix = accession.lower()
    probes = [f"{prefix}_{k:06d}" for k in range(1, len(order) + 1)]
    values = values[order]
    symbols = [symbols[i] for i in order]
    samples = [f"{accession}_S{j:03d}" for j in range(1, n + 1)]
    _write_series(path, accession, samples, fields, probes, values, fmt)

    # half of the unmapped probes are absent from the annotation file
    ann = ["ID\tSymbol"]
    absent = 0
    for pid, sym in sorted(zip(probes, symbols)):
        if not sym and absent < n_unmapped // 2:
            absent += 1
            continue
        ann.append(f"{pid}\t{sym}")
    _write(annotation, ann)
    return {"probes": len(probes), "features": g, "samples": n,
            "unmapped": n_unmapped, "collapsed": len(dup_rows)}, main


def _groups(rng, labels: list[str], n: int) -> list[str]:
    """``n`` labels in near-equal shares, in a seeded order."""
    out = [labels[i % len(labels)] for i in range(n)]
    return [out[i] for i in rng.permutation(n)]


def _gmt(rng, path: Path, genes: list[str], planted: list[str], n_sets: int,
         max_size: int) -> None:
    lines = []
    for k in range(1, n_sets + 1):
        size = int(rng.integers(15, max_size + 1))
        members = [genes[i] for i in rng.choice(len(genes), size, replace=False)]
        if k % 10 == 0:
            half = min(size // 2, len(planted))
            members[:half] = list(rng.choice(planted, half, replace=False))
        members += [f"UNKNOWN{k}_{j}" for j in range(2)]
        lines.append("\t".join([f"SET_{k:03d}", "synthetic"]
                               + list(dict.fromkeys(members))))
    _write(path, lines)


def _vdw_columns(x: np.ndarray) -> np.ndarray:
    """Van der Waerden scores of each column of a complete matrix."""
    n = x.shape[0]
    table = np.array([NormalDist().inv_cdf(r / (n + 1))
                      for r in range(1, n + 1)])
    ranks = np.argsort(np.argsort(x, axis=0, kind="stable"), axis=0)
    return table[ranks]


def _exact_tail_features(values: np.ndarray, case: np.ndarray) -> int:
    """Features the rank-sum test sends down the exact path after vdw scoring.

    Scores tie exactly when two cells share the fraction rank / (n + 1)
    of their columns (raw values are tie-free within a column).  A
    feature takes the exact tail when at most 12 values are present,
    each side has one, at least 4 in all, and no two scores tie.
    """
    present = ~np.isnan(values)
    ranks = np.argsort(np.argsort(np.where(present, values, np.inf), axis=0,
                                  kind="stable"), axis=0) + 1
    den = present.sum(axis=0) + 1
    g = np.gcd(ranks, den)
    num, dnm = ranks // g, np.broadcast_to(den, ranks.shape) // g
    count = 0
    for i in range(values.shape[0]):
        p = present[i]
        n = int(p.sum())
        if n > 12 or n < 4 or not p[case].any() or not p[~case].any():
            continue
        if len(set(zip(num[i, p].tolist(), dnm[i, p].tolist()))) == n:
            count += 1
    return count


def _merge_test(rng, root: Path, size: dict) -> dict:
    genes = gene_names(size["genes"])
    g = len(genes)
    base = rng.normal(7.0, 1.5, g)
    spread = rng.uniform(0.25, 0.8, g)
    planted = np.sort(rng.choice(g, size["planted"], replace=False))
    scales = [
        (lambda v: v, _fmt_round(2)),                    # log2 intensities
        (lambda v: np.exp2(v), _fmt_round(1)),           # linear scale
        (lambda v: np.round(100.0 * v + 300.0), _fmt_round(0)),  # integer
    ]
    studies = []
    for s, n in enumerate(size["samples"]):
        acc = f"GSE{1001 + s}"
        status = _groups(rng, ["status: case", "status: control"], n)
        case = np.array([v == "status: case" for v in status])
        scale, fmt = scales[s % len(scales)]
        info, _ = _study(rng, acc, genes, base, spread, planted, case, 0.015,
                      scale, fmt, [(STATUS_FIELD, status)],
                      root / f"{acc}_series_matrix.txt",
                      root / f"{acc}_annotation.tsv", 0.08, 0.04)
        studies.append(dict(info, accession=acc))
    planted_names = [genes[i] for i in planted]
    _gmt(rng, root / "sets.gmt", genes, planted_names, size["sets"],
         min(150, g // 4))
    return {"genes": g, "studies": studies, "planted": planted_names,
            "sets": size["sets"], "samples": sum(size["samples"])}


def _coexpr(rng, root: Path, size: dict) -> dict:
    rows, n = size["rows"], size["samples"]
    genes = gene_names(rows)
    tissue = _groups(rng, list(TISSUES), n)
    t_idx = np.array([TISSUES.index(t) for t in tissue])
    x = rng.standard_normal((rows, n))
    # correlated modules: gene = loading * factor + noise, so r spreads
    # over (0, 1); the first quarter of the factors differ by tissue
    members = rng.permutation(rows)
    for m in range(size["modules"]):
        factor = rng.standard_normal(n)
        if m < size["modules"] // 4:
            factor += rng.normal(0.0, 1.0, len(TISSUES))[t_idx]
        idx = members[m * size["module_size"]:(m + 1) * size["module_size"]]
        load = rng.uniform(0.3, 0.95, len(idx)) * rng.choice([-1, 1], len(idx))
        x[idx] = (load[:, None] * factor
                  + np.sqrt(1 - load ** 2)[:, None] * x[idx])
    # saturated probes hold the top ranks in every sample, so their
    # scores are constant rows and their pairs are skipped
    n_const = max(1, rows // 100)
    const = members[-n_const:]
    x[const] = 1e3 + np.arange(n_const)[:, None]
    scores = _vdw_columns(x)
    samples = [f"S{j:03d}" for j in range(1, n + 1)]
    _write_dataset(root / "coexpr", "coexpr", "vdw", genes, samples, scores,
                   [(TISSUE_FIELD, tissue)])
    pca_features = [genes[i] for i in members[:size["pca_features"]]]
    return {"rows": rows, "constant": n_const, "samples": n,
            "pca_features": pca_features, "names": genes, "values": scores}


def _small_cohort(rng, root: Path, size: dict) -> dict:
    genes = gene_names(size["genes"])
    g, n = len(genes), size["samples"]
    base = rng.normal(7.0, 1.5, g)
    spread = rng.uniform(0.25, 0.8, g)
    planted = np.sort(rng.choice(g, size["planted"], replace=False))
    status = _groups(rng, ["status: case", "status: control"], n)
    subtype = _groups(rng, ["subtype: A", "subtype: B", "subtype: C"], n)
    case = np.array([v == "status: case" for v in status])
    acc = "GSE2001"
    # no duplicate probes, so the scored matrix is the main probes and
    # the exact-path count below needs no model of reduce_duplicates
    info, main = _study(rng, acc, genes, base, spread, planted, case, 0.02,
                        lambda v: v, repr,
                        [(STATUS_FIELD, status), (STATUS_FIELD, subtype)],
                        root / f"{acc}_series_matrix.txt",
                        root / f"{acc}_annotation.tsv", 0.0, 0.02)

    # the pairwise subset: raw values with missing cells, and two rows
    # with only two values, whose pairs have too few complete observations
    k = size["subset"]
    sub = base[:k, None] + spread[:k, None] * rng.standard_normal((k, n))
    sub[rng.random(sub.shape) < 0.02] = np.nan
    sub[:2, 2:] = np.nan
    samples = [f"{acc}_S{j:03d}" for j in range(1, n + 1)]
    _write_dataset(root / "subset", "subset", "none", genes[:k], samples, sub,
                   [("status", [s.split(": ")[1] for s in status])])
    present = (~np.isnan(sub)).astype(float)
    complete = present @ present.T
    emitted = int((complete[np.triu_indices(k, 1)] >= 3).sum())
    return {"genes": g, "study": dict(info, accession=acc), "samples": n,
            "subset_rows": k, "subset_emitted": emitted,
            "subset_names": genes[:k], "subset_values": sub,
            "exact_tail_features": _exact_tail_features(main, case)}


_BUILDERS = {"merge-test": _merge_test, "coexpr-pairwise": _coexpr,
             "small-cohort": _small_cohort}

WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int, root: Path, size: str = "full") -> dict:
    """Write the inputs of ``workload`` under ``root``; return the truth."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, root, SIZES[workload][size])
