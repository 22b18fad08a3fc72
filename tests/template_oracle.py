"""Brute-force oracle for the block-cactus template matchers.

Lists every template of the graph's order that the characterizations
name, builds each one and runs isomorphism against it, in a fixed order.
The first template that matches gives the descriptor and the role map, and
every template that matches is listed. The number of candidates grows
with the partitions of n - 1, each tried by backtracking isomorphism;
meant for n <= 20.
"""

from __future__ import annotations

from typing import Iterator

from locdom.blockcactus import FamilyMatch
from locdom.families import FamilyDescriptor, build
from locdom.graph import Graph, find_isomorphism


def partitions_min2(m: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into non-increasing parts, each part >= 2."""
    if m == 0:
        yield ()
        return

    def rec(left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for p in range(min(left, cap), 1, -1):
            if left - p == 0 or left - p >= 2:
                for rest in rec(left - p, p):
                    yield (p, *rest)

    yield from rec(m, m)


def try_templates(g: Graph, candidates: list[FamilyDescriptor]) -> FamilyMatch:
    matches: list[tuple[FamilyDescriptor, tuple[int, ...]]] = []
    degseq = g.degree_sequence()
    for d in candidates:
        template = build(d)
        if template.n != g.n or template.degree_sequence() != degseq:
            continue
        iso = find_isomorphism(g, template)
        if iso is not None:
            matches.append((d, iso))
    if not matches:
        return FamilyMatch(matched=False)
    first_d, first_map = matches[0]
    return FamilyMatch(
        matched=True,
        descriptor=first_d,
        role_map=first_map,
        all_descriptors=tuple(d for d, _ in matches),
    )


def nonglobal_candidates(n: int) -> list[FamilyDescriptor]:
    out = []
    if n - 2 >= 3:
        out.append(FamilyDescriptor("fig8a", (n - 2,)))
    if n - 3 >= 3:
        out.append(FamilyDescriptor("fig8b", (n - 3,)))
    if n - 1 >= 3:
        out.append(FamilyDescriptor("fig8c", (n - 1,)))
    if n == 8:
        out.append(FamilyDescriptor("fig6d"))
    if n == 7:
        out.append(FamilyDescriptor("k4_pendants3"))
    if n == 8:
        out.append(FamilyDescriptor("k4_pendants2_tail"))
    for gadgets in range((n - 1) // 5 + 1):
        m = n - 1 - 5 * gadgets
        if m < 0:
            break
        for t_prime in range(gadgets + 1):
            horned = gadgets - t_prime
            for sizes in partitions_min2(m):
                if len(sizes) + gadgets >= 2:
                    out.append(
                        FamilyDescriptor(
                            "fig6e", (len(sizes), *sizes, t_prime, horned)
                        )
                    )
    return out


def complement_candidates(n: int) -> list[FamilyDescriptor]:
    out = []
    if n - 1 >= 1:
        out.append(FamilyDescriptor("fig8c", (n - 1,)))
    if n - 2 >= 2:
        out.append(FamilyDescriptor("fig8a", (n - 2,)))
    if n - 3 >= 2:
        out.append(FamilyDescriptor("fig8b", (n - 3,)))
    for sizes in partitions_min2(n - 1):
        if len(sizes) >= 2:
            out.append(FamilyDescriptor("fig8d", sizes))
    return out


def match_nonglobal(g: Graph) -> FamilyMatch:
    return try_templates(g, nonglobal_candidates(g.n))


def match_complement(g: Graph) -> FamilyMatch:
    return try_templates(g, complement_candidates(g.n))
