"""The benchmark's three workloads: seeded inputs, job lists and checks.

A workload's set-up writes its seeded inputs as files and returns a job
list. Every job is one call through the front door, ``tourkit.cli.main``
on those files, except the farness audit, which has no CLI command and
calls the library. A run repeats the whole list, one pass after another,
so every run measures the same jobs and a faster program only gets more
passes. Inputs are drawn in fixed strata, so every seed gets the same
mix of sizes.

Why these workloads:

* ``reduction`` runs ``check-reduction`` on random graphs. ``hardness``
  and ``nae`` do nearly all the work; a fixed number of graphs per pass
  have no triangle-free cut, so the NAE search on T(G) is exhaustive.
* ``blowup`` is one lower-bound session on the minimal hard pattern.
  ``orderedhom`` dominates: every job after the first re-derives the
  part structure of the same pattern.
* ``tournaments`` analyses random tournaments: acyclic coloring,
  regularity, embedding counts and reversal distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

import oracles


class CheckFailed(Exception):
    """An output check found a wrong answer."""


@dataclass
class Job:
    id: str
    kind: str
    # jobs on one input instance share this; None when not part of one
    instance: Optional[str]
    # CLI arguments, or a function building them from earlier results
    argv: Union[list, Callable, None] = None
    # library job: returns (exit code, report text, data for the check)
    run: Optional[Callable] = None
    expect: int = 0
    artifacts: tuple = ()
    check: Optional[Callable] = None


@dataclass
class Workload:
    jobs: list
    properties: dict = field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _interleave(strata: list[list[Job]], rng: random.Random) -> list[Job]:
    """Merge strata so each prefix keeps every stratum's share."""
    keyed = []
    for jobs in strata:
        offset = rng.random()
        for i, job in enumerate(jobs):
            keyed.append(((i + offset) / len(jobs), job.id, job))
    keyed.sort(key=lambda item: item[:2])
    return [job for _, _, job in keyed]


def _edges_text(n: int, arcs) -> str:
    lines = [str(n), "edges"]
    lines.extend(f"{u} {v}" for u, v in sorted(arcs))
    return "\n".join(lines) + "\n"


def _random_tournament(n: int, rng: random.Random) -> set:
    return {
        (i, j) if rng.random() < 0.5 else (j, i)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- reduction -------------------------------------------------------------

# (stratum, n, p, has a triangle-free cut, {triangle count: graphs per pass},
#  graphs drawn at least)
# Job time grows steeply with the triangle count m, since T(G) has n + 18m
# vertices, and varies little at fixed m; fixing the count per m keeps the
# cost of a pass the same from seed to seed. Graphs stop at m = 12: from
# m = 13 on, single jobs range from 0.4 s to over 20 s. Graphs without a
# cut have n = 7, since rejection sampling finds n = 8 ones ten times
# slower. The ten at m = 10 sit at the 90th percentile of job time.
# One graph in about 1200 at n = 7, p = 0.6 has m = 10 and no cut, so
# the no-cut quotas take 6k to 17k draws, as the seed falls. The stratum
# draws 24k graphs or more, and keeps the first that fill its quotas, so
# the seed changes the graphs but not the set-up's cost.
REDUCTION_STRATA = (
    ("n7", 7, 0.5, True,
     {0: 2, 1: 4, 2: 9, 3: 10, 4: 9, 5: 8, 6: 7, 7: 4, 8: 4, 9: 2}, 0),
    ("n8", 8, 0.5, True, {2: 2, 3: 4, 4: 4, 5: 4, 6: 4, 7: 3, 8: 2, 9: 2}, 0),
    ("n9", 9, 0.5, True, {4: 1, 7: 1, 10: 2}, 0),
    ("nocut7", 7, 0.6, False, {10: 10, 12: 2}, 24_000),
)


def _check_reduction(cut: bool):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        expect = "yes" if cut else "no"
        _require(values["agree"] == "yes", "sides disagree")
        _require(values["triangle-free-cut"] == expect, "cut verdict differs from brute force")
        _require(values["tournament-2-colorable"] == expect, "tournament verdict differs")
        if cut:
            _require(values.get("lifted-cut-valid") == "yes", "lifted cut not valid")

    return check


def reduction(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"reduction:{seed}")
    strata = []
    sizes = []
    for name, n, p, cut, quota, pool in REDUCTION_STRATA:
        jobs = []
        missing = dict(quota)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        drawn = 0
        while missing or drawn < pool:
            drawn += 1
            edges = [pair for pair in pairs if rng.random() < p]
            triangles = oracles.graph_triangles(n, edges)
            m = len(triangles)
            if not missing.get(m) or oracles.has_triangle_free_cut(n, triangles) != cut:
                continue
            missing[m] -= 1
            if not missing[m]:
                del missing[m]
            job_id = f"{name}-{len(jobs)}"
            lines = [str(n)] + [f"{a} {b}" for a, b in edges]
            path = _write(workdir / f"{job_id}.txt", "\n".join(lines) + "\n")
            jobs.append(
                Job(job_id, name, job_id, ["check-reduction", path],
                    check=_check_reduction(cut))
            )
            sizes.append(n + 18 * m)
        strata.append(jobs)
    jobs = _interleave(strata, rng)
    total = len(jobs)
    no_cut = sum(sum(quota.values()) for _, _, _, cut, quota, _ in REDUCTION_STRATA if not cut)
    sizes.sort()
    return Workload(
        jobs=jobs,
        properties={
            "graphs": total,
            "no_cut_share": round(no_cut / total, 4),
            "tg_vertices_min": sizes[0],
            "tg_vertices_median": sizes[total // 2],
            "tg_vertices_p90": sizes[(9 * total) // 10],
            "tg_vertices_max": sizes[-1],
        },
    )


# -- blowup ---------------------------------------------------------------

# The (n, nmax) point of a pass. Its block size is 2, the size the forcing
# seed is certified at. The localization audit's time depends on the
# pattern's labeling: at (100, 10) it ranges from 0.6 s to 17 s across
# seeds, at (50, 5) from 0.01 s to 0.8 s, so the point stays small.
BLOWUP_POINT = (50, 5)

# The relabelings of the pattern that a seed draws from. core_family's
# work does not depend on the labeling, but select_k's does: it tests
# the family's members for maximality in the order the labeling sweep
# first meets them. Over 38 random labelings its OPH search visited from
# 13k to 265k nodes, up to 2.5 s of CPU in a 5 to 8 s derivation, and
# that cost repeats in every pattern job of a pass. These nine distinct
# labelings, from the middle of that range, each visit 45k to 70k
# nodes, so a seed changes the labeling but not the cost of a pass.
BLOWUP_LABELINGS = (
    (6, 1, 2, 7, 4, 3, 5),
    (2, 3, 7, 1, 6, 4, 5),
    (7, 5, 4, 2, 6, 1, 3),
    (6, 2, 4, 3, 1, 5, 7),
    (4, 5, 1, 7, 6, 3, 2),
    (2, 3, 4, 7, 5, 6, 1),
    (1, 2, 5, 6, 7, 3, 4),
    (7, 3, 5, 6, 1, 2, 4),
    (2, 5, 1, 6, 4, 3, 7),
)


def _certifying_seed(h, classes, part_digraph, start: int) -> int:
    """First forcing seed from ``start`` whose transitive completion
    certifies a copy, as in the lower-bound demo."""
    from itertools import combinations

    from tourkit.forcing import build_forcing, certify_completion

    cls = [list(c) for c in classes]
    seed = start
    while True:
        f = build_forcing(h, cls, part_digraph, 2, seed)
        inner = [
            (a, b)
            for part in range(1, f.k + 1)
            for a, b in combinations(f.part_vertices(part), 2)
        ]
        if certify_completion(f, f.completion(inner), h, cls).count >= 1:
            return seed
        seed += 1


def _farness_job(pattern_path: str, n: int, nmax: int, fseed: int, mutation_seed: int):
    """Library farness audit under a seeded mutation of the blow-up."""

    def run():
        from tourkit import formats, lowerbound

        h = formats.parse_oriented_graph(Path(pattern_path).read_text())
        b = lowerbound.blowup_tournament(h, n, fseed, n_max=nmax)
        rng = random.Random(mutation_seed)
        # cluster flips first: they can break a certified copy, so draw
        # them again until the family on the flipped clusters keeps one
        while True:
            flips = []
            while len(flips) < 4:
                u = rng.randrange(1, b.n + 1)
                v = rng.randrange(1, b.n + 1)
                if u != v and not b.is_cut_pair(u, v) and (u, v) not in flips and (v, u) not in flips:
                    flips.append((u, v))
            kept = lowerbound.farness_certificate(b, b.tournament.flip_pairs(flips))
            if kept.family:
                break
        # then reverse one cut edge in fewer copies than the family holds,
        # so the certificate still promises a survivor; cut edges do not
        # change the family, which takes them from the blow-up
        picked = rng.sample(kept.family, rng.randrange(len(kept.family)))
        flips += [
            next(
                (emb.apply(u), emb.apply(v))
                for u, v in b.pattern.edges
                if b.is_cut_pair(emb.apply(u), emb.apply(v))
            )
            for _, emb in picked
        ]
        mutated = b.tournament.flip_pairs(flips)
        cert = lowerbound.farness_certificate(b, mutated)
        text = "\n".join([
            "farness certificate under a seeded mutation",
            "---",
            f"copies: {cert.count}",
            f"per-clique: {' '.join(map(str, cert.per_clique))}",
            f"reversed-cut-edges: {cert.reversed_cut_edges}",
            f"reversed-cluster-edges: {cert.reversed_cluster_edges}",
            f"certified-surviving: {cert.certified_surviving}",
            f"survivors-verified: {cert.survivors_verified}",
        ]) + "\n"
        data = {
            "copies": [emb.mapping for _, emb in cert.family],
            "pattern": sorted(b.pattern.edges),
            "mutated": mutated.edges,
        }
        return 0, text, data

    return run


def _check_farness(job, rec, first):
    values = oracles.report_values(rec.stdout)
    data = rec.data
    copies = int(values["copies"])
    certified = int(values["certified-surviving"])
    _require(certified >= 1, "certificate promises no survivor")
    _require(certified == copies - int(values["reversed-cut-edges"]), "certified count inconsistent")
    survivors = sum(
        all((emb[u - 1], emb[v - 1]) in data["mutated"] for u, v in data["pattern"])
        for emb in data["copies"]
    )
    _require(survivors == int(values["survivors-verified"]), "survivor recount differs")
    _require(survivors >= certified, "fewer survivors than certified")


def _check_kofh(h_n: int):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        witness = sorted(int(x) for x in values["witness-labeling"].split())
        _require(witness == list(range(1, h_n + 1)), "witness is not a labeling")
        _require(int(values["family-size"]) >= 1, "empty core family")
        kernel = [int(x) for x in values["kernel-vertices"].split()]
        _require(kernel and set(kernel) <= set(witness), "kernel labels outside 1..h")

    return check


def _check_rsgraph(k: int, nmax: int):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        _require(int(values["order"]) == k * nmax, "base graph order")
        _require(int(values["cliques"]) >= 1, "no cliques")
        _require(
            int(values["patterned-cycles"]) <= int(values["cycle-bound"]),
            "patterned cycles above r^2",
        )

    return check


def _check_blowup(out_path: str, fseed: int):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        n, arcs = oracles.parse_arcs(rec.artifacts[out_path].decode())
        _require(n == int(values["vertices"]), "written vertex count")
        _require(oracles.is_tournament(n, arcs), "written graph is not a tournament")
        provenance = rec.artifacts[out_path + ".provenance"].decode().splitlines()
        _require(f"forcing-seed: {fseed}" in provenance, "provenance seed")

    return check


def _check_audit(job, rec, first):
    values = oracles.report_values(rec.stdout)
    _require(values["violations"] == "0", "localization violations")
    copies = int(values["copies"])
    _require(1 <= copies <= int(values["copy-bound"]), "copy count outside its bound")


def blowup(seed: int, workdir: Path) -> Workload:
    from tourkit import coloring, lowerbound

    rng = random.Random(f"blowup:{seed}")
    # the pattern search is cached per process; clear it so every
    # repetition of the set-up pays for it
    coloring.smallest_non_two_colorable_tournament.cache_clear()
    base = coloring.smallest_non_two_colorable_tournament()
    h = base.relabel(list(rng.choice(BLOWUP_LABELINGS)))
    _, _, classes, part_digraph, _, part_cycle = lowerbound.derive_part_structure(h)
    fseed = _certifying_seed(h, classes, part_digraph, rng.randrange(1000))
    pattern = _write(workdir / "pattern.txt", _edges_text(h.n, h.edges))
    k = len(classes)
    cycle = ",".join(map(str, part_cycle))
    n, nmax = BLOWUP_POINT
    point = f"n{n}-nmax{nmax}"
    common = [pattern, "--n", str(n), "--nmax", str(nmax), "--seed", str(fseed)]
    out = str(workdir / f"blowup-{point}.txt")
    rs_nmax = rng.randrange(120, 161, 10)
    jobs = [
        Job("kofh", "kofh", None, ["kofh", pattern], check=_check_kofh(h.n)),
        Job(f"blowup-{point}", "blowup", point, ["blowup", *common, "--out", out],
            artifacts=(out, out + ".provenance"), check=_check_blowup(out, fseed)),
        Job(f"audit-{point}", "audit-copies", point, ["audit-copies", *common],
            check=_check_audit),
        Job(f"farness-{point}", "farness", point,
            run=_farness_job(pattern, n, nmax, fseed, rng.randrange(1 << 30)),
            check=_check_farness),
        Job(f"rsgraph-{point}", "rsgraph", None,
            ["rsgraph", "--k", str(k), "--cycle", cycle, "--nmax", str(rs_nmax)],
            check=_check_rsgraph(k, rs_nmax)),
    ]
    # every pattern job of a pass after the first derives the same
    # pattern again, and so does every pattern job of a later pass
    pattern_jobs = sum(job.kind != "rsgraph" for job in jobs)
    return Workload(
        jobs=jobs,
        properties={
            "pattern_vertices": h.n,
            "forcing_seed": fseed,
            "rsgraph_nmax": rs_nmax,
            "pattern_repeat_share": round((pattern_jobs - 1) / pattern_jobs, 4),
        },
    )


# -- tournaments -------------------------------------------------------------

# (kind, vertex count of each job in a pass)
# Sizes are fixed per pass, so a seed changes the tournaments but not the
# size mix. The 12 regularity jobs are the slowest of the 111 in a pass,
# so the 90th percentile falls among them. Chromatic stops at n = 20 and distance
# at n = 11: above these single jobs range over 10x from seed to seed, since
# the cost jumps when the chromatic number or the distance does. Count
# patterns are tournaments, whose embedding counts vary little.
TOURNAMENT_STRATA = (
    ("chromatic", tuple(range(16, 21)) * 6),
    ("regularity", (32, 32, 36, 40) * 3),
    ("count", tuple(range(24, 29)) * 5),
    ("distance", (10,) * 14 + (11,) * 2),
    ("classify", (5, 6, 7) * 6),
)
COLOR_SHARE = 3  # one chromatic tournament in three is also colored
COUNT_ORACLE_SHARE = 4  # one count job in four is recounted


def _check_chromatic(job, rec, first):
    values = oracles.report_values(rec.stdout)
    _require(int(values["chromatic-number"]) >= 1, "chromatic number below 1")


def _color_argv(path: str, chromatic_id: str):
    def argv(first):
        values = oracles.report_values(first[chromatic_id].stdout)
        return ["color", path, "--k", values["chromatic-number"]]

    return argv


def _check_color(n: int, arcs, chromatic_id: str):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        chi = int(oracles.report_values(first[chromatic_id].stdout)["chromatic-number"])
        _require(values["colorable"] == "yes", "no coloring with chi colors")
        classes = [
            [int(v) for v in part.split()]
            for part in values["classes"].split("|")
        ]
        _require(len(classes) == chi, "class count differs from chi")
        _require(oracles.proper_coloring(n, arcs, [c for c in classes if c]),
                 "a color class has a cycle")

    return check


def _check_regularity(job, rec, first):
    values = oracles.report_values(rec.stdout)
    if values["branch"] == "copies":
        _require(int(values["count"]) >= 1, "copy branch without copies")
        return
    _require(values["item2-ok"] == "yes", "item 2 failed")
    _require(
        oracles.fraction_of(values["item1-failures"]) <= oracles.fraction_of(values["item1-bound"]),
        "item 1 failures above bound",
    )
    _require(len(values["representative-sizes"].split()) == int(values["parts"]),
             "one representative per part")


def _check_count(n: int, arcs, k: int, pattern_arcs, recount: bool):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        if recount:
            _require(
                int(values["embeddings"]) == oracles.count_embeddings(n, arcs, k, pattern_arcs),
                "embedding count differs from recount",
            )

    return check


def _check_distance(n: int, arcs):
    def check(job, rec, first):
        values = oracles.report_values(rec.stdout)
        _require(values["exact"] == "yes", "distance not exact")
        flips = [tuple(map(int, f.split("-"))) for f in values.get("flips", "").split()]
        _require(len(flips) == int(values["distance"]), "flip count differs from distance")
        flipped = set(arcs)
        for a, b in flips:
            pair = (a, b) if (a, b) in flipped else (b, a)
            flipped.remove(pair)
            flipped.add(pair[::-1])
        # a tournament without a directed triangle is transitive
        _require(oracles.is_acyclic(range(1, n + 1), flipped), "flips leave a cycle")

    return check


def _check_classify(n: int, arcs):
    def check(job, rec, first):
        verdict = oracles.report_values(rec.stdout)["classification"]
        expect = "easy" if oracles.two_colorable(n, arcs) else "hard"
        _require(verdict == expect, "classification differs from brute force")

    return check


def tournaments(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"tournaments:{seed}")
    c3 = _write(workdir / "c3.txt", _edges_text(3, [(1, 2), (2, 3), (3, 1)]))
    strata = []
    for kind, ns in TOURNAMENT_STRATA:
        jobs = []
        for i, n in enumerate(ns):
            job_id = f"{kind}-{i}"
            if kind == "classify":
                arcs = {a for a in _random_tournament(n, rng) if rng.random() < 0.9}
            else:
                arcs = _random_tournament(n, rng)
            path = _write(workdir / f"{job_id}.txt", _edges_text(n, arcs))
            if kind == "chromatic":
                jobs.append(Job(job_id, kind, job_id, ["chromatic", path],
                                check=_check_chromatic))
                if i % COLOR_SHARE == 0:
                    jobs.append(Job(f"color-{i}", "color", job_id, _color_argv(path, job_id),
                                    check=_check_color(n, arcs, job_id)))
            elif kind == "regularity":
                jobs.append(Job(job_id, kind, job_id, ["regularity", path, "--delta", "1/4"],
                                check=_check_regularity))
            elif kind == "count":
                k = 4 + i % 2
                pattern_arcs = _random_tournament(k, rng)
                ppath = _write(workdir / f"{job_id}-pattern.txt", _edges_text(k, pattern_arcs))
                jobs.append(Job(job_id, kind, job_id, ["count", path, ppath],
                                check=_check_count(n, arcs, k, pattern_arcs,
                                                   i % COUNT_ORACLE_SHARE == 0)))
            elif kind == "distance":
                jobs.append(Job(job_id, kind, job_id, ["distance", path, c3],
                                check=_check_distance(n, arcs)))
            else:
                jobs.append(Job(job_id, kind, job_id, ["classify", path],
                                check=_check_classify(n, arcs)))
        strata.append(jobs)
    jobs = _interleave(strata, rng)
    # a color job runs right after the chromatic job it depends on
    order = [j for j in jobs if j.kind != "color"]
    for job in [j for j in jobs if j.kind == "color"]:
        order.insert(order.index(next(c for c in order if c.id == job.instance)) + 1, job)
    return Workload(
        jobs=order,
        properties={
            f"{kind}_n": f"{len(ns)} jobs, n {min(ns)}-{max(ns)}" for kind, ns in TOURNAMENT_STRATA
        },
    )


WORKLOADS = {
    "reduction": reduction,
    "blowup": blowup,
    "tournaments": tournaments,
}
