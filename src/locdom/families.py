"""Named parametric graph families and their closed-form invariant triples.

Each family has a documented canonical vertex numbering so tests and CLI
output can refer to vertices by role (hub, center, apex, attachment).
The formula layer serves (lambda, lambda of the complement, global lambda)
for the seven classic families; small orders come from an embedded table of
hand-checked values, larger ones from the ceiling formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, complement, join, union


class FamilySpecError(ValueError):
    """Bad family-specification string; the message names the offending token."""


class FormulaUnsupportedError(ValueError):
    """Parameters outside the range covered by the value tables."""


@dataclass(frozen=True)
class FamilyDescriptor:
    """Tagged parametric description of a named family instance.

    Parameter conventions per tag:
      path/cycle/wheel/complete/star   (n,)
      complete_bipartite/bi_star       (r, s)
      paw/bull/banner/banner_complement/butterfly/corner/fig6d/
        k4_pendants3/k4_pendants2_tail   ()
      fig8a/fig8b/fig8c                (r,)
      fig8d                            (r_1, ..., r_t) with t >= 2
      fig6e                            (t, r_1, ..., r_t, t_prime[, horned])
    """

    tag: str
    params: tuple[int, ...] = ()


@dataclass(frozen=True)
class FormulaTriple:
    lam: int
    lam_complement: int
    lam_global: int


def _ceil5(x: int) -> int:
    return -(-x // 5)


# Hand-checked values for the small orders not covered by the ceiling
# formulas (paths/cycles/wheels below the formula thresholds).
_TABLE1: dict[tuple[str, int], tuple[int, int, int]] = {
    ("path", 1): (1, 1, 1),
    ("path", 2): (1, 2, 2),
    ("path", 3): (2, 2, 2),
    ("path", 4): (2, 2, 2),
    ("path", 5): (2, 2, 3),
    ("path", 6): (3, 3, 3),
    ("cycle", 4): (2, 2, 2),
    ("cycle", 5): (2, 2, 3),
    ("cycle", 6): (3, 3, 3),
    ("wheel", 5): (2, 3, 3),
    ("wheel", 6): (3, 3, 3),
    ("wheel", 7): (3, 4, 4),
}


# ---------------------------------------------------------------------------
# constructors

def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(n: int) -> Graph:
    """Wheel of order n: rim cycle on 0..n-2, hub = vertex n-1."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    return join(cycle(n - 1), Graph(1))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    """Star of order n: leaves 0..n-2, center = vertex n-1."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return join(Graph(n - 1), Graph(1))


def complete_bipartite(r: int, s: int) -> Graph:
    """K_{r,s}: first part 0..r-1, second part r..r+s-1."""
    if r < 1 or s < 1:
        raise ValueError("complete bipartite needs r, s >= 1")
    return join(Graph(r), Graph(s))


def bi_star(r: int, s: int) -> Graph:
    """Adjacent centers 0 and 1 carrying r and s leaves: leaves of 0 are
    2..r+1, leaves of 1 are r+2..r+s+1."""
    if r < 2 or s < 2:
        raise ValueError("bi-star needs r, s >= 2")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, 2 + r + i) for i in range(s)]
    return Graph(r + s + 2, edges)


def paw() -> Graph:
    """Triangle {0,1,2} with pendant 3 attached to 0."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def bull() -> Graph:
    """Triangle {0,1,2} with horns 3-0 and 4-1 (vertex 2 hornless)."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def banner() -> Graph:
    """4-cycle 0-1-2-3-0 with pendant 4 attached to 0."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def banner_complement() -> Graph:
    return complement(banner())


def butterfly() -> Graph:
    """Triangles {0,1,2} and {0,3,4} sharing vertex 0."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def corner() -> Graph:
    """The 6-vertex attachment gadget used in the non-global constructions.

    A 4-cycle 0-1-2-3-0 with pendants 4-1 and 5-3. Its degree-2 vertices 0
    and 2 are swapped by an automorphism; vertex 0 is the documented
    attachment point (the role played by the dominated apex when copies are
    glued together).
    """
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (3, 5)])


def fig8a(r: int) -> Graph:
    """Apex n-1 joined to an isolated vertex 0 plus a clique 1..r."""
    if r < 2:
        raise ValueError("fig8a needs r >= 2")
    return join(union(Graph(1), complete(r)), Graph(1))


def fig8b(r: int) -> Graph:
    """Clique 0..r with a pendant path r+1, r+2 hung from clique vertex 0."""
    if r < 2:
        raise ValueError("fig8b needs r >= 2")
    edges = [(i, j) for i in range(r + 1) for j in range(i + 1, r + 1)]
    edges += [(0, r + 1), (r + 1, r + 2)]
    return Graph(r + 3, edges)


def fig8c(r: int) -> Graph:
    """Complete graph of order r+1."""
    if r < 1:
        raise ValueError("fig8c needs r >= 1")
    return complete(r + 1)


def fig8d(sizes: tuple[int, ...]) -> Graph:
    """Apex n-1 joined to t >= 2 disjoint cliques of the given sizes."""
    if len(sizes) < 2 or any(r < 2 for r in sizes):
        raise ValueError("fig8d needs at least two clique sizes, all >= 2")
    g = complete(sizes[0])
    for r in sizes[1:]:
        g = union(g, complete(r))
    return join(g, Graph(1))


def fig6d() -> Graph:
    """Corner with a pendant edge pair: 6 attached to the corner's vertex 0,
    7 attached to 6. Order 8."""
    base = corner()
    edges = base.edges() + [(0, 6), (6, 7)]
    return Graph(8, edges)


def fig6e(sizes: tuple[int, ...], t_prime: int, horned: int = 0) -> Graph:
    """Apex identified with t cliques, t_prime corners and `horned` horned
    triangles; needs t + t_prime + horned >= 2 and clique sizes >= 2.

    A horned-triangle branch is a triangle joined wholly to the apex with
    pendant vertices on two of its three corners (a K4 block carrying two
    horns). Layout: cliques occupy consecutive ranges from 0, then each
    corner copy adds 5 vertices (a, b, c, pa, pc with a and c adjacent to
    the apex), then each horned triangle adds 5 vertices (a, b, c, pa, pb
    with the whole triangle adjacent to the apex); the apex is vertex n-1.
    """
    t = len(sizes)
    if any(r < 2 for r in sizes):
        raise ValueError("fig6e clique sizes must be >= 2")
    if t_prime < 0 or horned < 0 or t + t_prime + horned < 2:
        raise ValueError("fig6e needs t + t_prime + horned >= 2")
    n = 1 + sum(sizes) + 5 * t_prime + 5 * horned
    apex = n - 1
    edges = []
    base = 0
    for r in sizes:
        verts = range(base, base + r)
        edges += [(i, j) for i in verts for j in verts if i < j]
        edges += [(i, apex) for i in verts]
        base += r
    for _ in range(t_prime):
        a, b, c, pa, pc = base, base + 1, base + 2, base + 3, base + 4
        edges += [(apex, a), (a, b), (b, c), (c, apex), (a, pa), (c, pc)]
        base += 5
    for _ in range(horned):
        a, b, c, pa, pb = base, base + 1, base + 2, base + 3, base + 4
        edges += [(apex, a), (apex, b), (apex, c), (a, b), (a, c), (b, c),
                  (a, pa), (b, pb)]
        base += 5
    return Graph(n, edges)


def k4_pendants3() -> Graph:
    """K4 on 0..3 with pendant vertices 4, 5, 6 on clique vertices 1, 2, 3."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(1, 4), (2, 5), (3, 6)]
    return Graph(7, edges)


def k4_pendants2_tail() -> Graph:
    """K4 on 0..3 with pendants 4, 5 on clique vertices 1, 2 and a pendant
    path 6-7 hung from clique vertex 0."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(1, 4), (2, 5), (0, 6), (6, 7)]
    return Graph(8, edges)


def fig6e_parts(params: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """(clique sizes, t_prime, horned) of fig6e parameters in either layout,
    (t, r_1, ..., r_t, t_prime) or (t, r_1, ..., r_t, t_prime, horned)."""
    if not params:
        raise ValueError("fig6e needs parameters")
    t = params[0]
    if len(params) == t + 2:
        return params[1:-1], params[-1], 0
    if len(params) == t + 3:
        return params[1:-2], params[-2], params[-1]
    raise ValueError(f"fig6e: t={t} inconsistent with {len(params)} parameters")


_FIXED = {
    "paw": paw,
    "bull": bull,
    "banner": banner,
    "banner_complement": banner_complement,
    "butterfly": butterfly,
    "corner": corner,
    "fig6d": fig6d,
    "k4_pendants3": k4_pendants3,
    "k4_pendants2_tail": k4_pendants2_tail,
}


def build(d: FamilyDescriptor) -> Graph:
    """Canonical instance of a family descriptor."""
    tag, p = d.tag, d.params
    try:
        if tag in _FIXED:
            if p:
                raise ValueError(f"{tag} takes no parameters")
            return _FIXED[tag]()
        if tag == "path":
            return path(*p)
        if tag == "cycle":
            return cycle(*p)
        if tag == "wheel":
            return wheel(*p)
        if tag == "complete":
            return complete(*p)
        if tag == "star":
            return star(*p)
        if tag == "complete_bipartite":
            return complete_bipartite(*p)
        if tag == "bi_star":
            return bi_star(*p)
        if tag == "fig8a":
            return fig8a(*p)
        if tag == "fig8b":
            return fig8b(*p)
        if tag == "fig8c":
            return fig8c(*p)
        if tag == "fig8d":
            return fig8d(p)
        if tag == "fig6e":
            return fig6e(*fig6e_parts(p))
    except TypeError as exc:
        raise ValueError(f"bad parameter count for {tag}: {p}") from exc
    raise ValueError(f"unknown family tag {tag!r}")


def formula(d: FamilyDescriptor) -> FormulaTriple:
    """(lambda, lambda of complement, global lambda) exactly as tabulated.

    Raises FormulaUnsupportedError outside the tabulated parameter ranges
    (e.g. wheels below order 5, stars below order 4).
    """
    tag, p = d.tag, d.params
    if tag in ("path", "cycle", "wheel"):
        (n,) = p
        if (tag, n) in _TABLE1:
            return FormulaTriple(*_TABLE1[(tag, n)])
        if tag == "path" and n >= 7 or tag == "cycle" and n >= 7:
            return FormulaTriple(_ceil5(2 * n), _ceil5(2 * n - 2), _ceil5(2 * n))
        if tag == "wheel" and n >= 8:
            return FormulaTriple(_ceil5(2 * n - 2), _ceil5(2 * n + 1), _ceil5(2 * n + 1))
        raise FormulaUnsupportedError(f"no tabulated values for {tag} of order {n}")
    if tag == "complete":
        (n,) = p
        if n < 2:
            raise FormulaUnsupportedError("complete-graph values start at order 2")
        return FormulaTriple(n - 1, n, n)
    if tag == "star":
        (n,) = p
        if n < 4:
            raise FormulaUnsupportedError("star values start at order 4")
        return FormulaTriple(n - 1, n - 1, n - 1)
    if tag == "complete_bipartite":
        r, s = p
        if r < 2 or s < 2:
            raise FormulaUnsupportedError("complete-bipartite values need r, s >= 2")
        n = r + s
        return FormulaTriple(n - 2, n - 2, n - 2)
    if tag == "bi_star":
        r, s = p
        if r < 2 or s < 2:
            raise FormulaUnsupportedError("bi-star values need r, s >= 2")
        n = r + s + 2
        return FormulaTriple(n - 2, n - 3, n - 2)
    raise FormulaUnsupportedError(f"no value table for family {tag!r}")


def lambda_complement_path_cycle_identity(n: int) -> tuple[int, int, int]:
    """(lambda of complement of P_n, of complement of C_n, of P_{n-1});
    the three agree for n >= 7."""
    if n < 7:
        raise FormulaUnsupportedError("identity only asserted for n >= 7")
    a = formula(FamilyDescriptor("path", (n,))).lam_complement
    b = formula(FamilyDescriptor("cycle", (n,))).lam_complement
    c = formula(FamilyDescriptor("path", (n - 1,))).lam
    return (a, b, c)


# ---------------------------------------------------------------------------
# family-specification mini-language

SPEC_GRAMMAR = """\
family-spec := TAG [':' params]
  P:n  C:n  W:n  K:n  S:n      path / cycle / wheel / complete / star of order n
  Kb:r,s                       complete bipartite K_{r,s}
  B2:r,s                       bi-star (adjacent centers with r and s leaves)
  paw | bull | banner | bannerc | butterfly | corner | F6d | K4p3 | K4p2t
                               (no parameters)
  F8a:r  F8b:r  F8c:r          one-parameter templates
  F8d:r1,r2[,...]              apex joined to cliques of these sizes (>= 2 sizes)
  F6e:t=T,r=r1,...;tp=TP[;d=D] apex identified with T cliques, TP corner
                               copies and D horned triangles
"""

_SIMPLE_TAGS = {
    "p": ("path", 1),
    "c": ("cycle", 1),
    "w": ("wheel", 1),
    "k": ("complete", 1),
    "s": ("star", 1),
    "kb": ("complete_bipartite", 2),
    "b2": ("bi_star", 2),
    "f8a": ("fig8a", 1),
    "f8b": ("fig8b", 1),
    "f8c": ("fig8c", 1),
}

_BARE_TAGS = {
    "paw": "paw",
    "bull": "bull",
    "banner": "banner",
    "bannerc": "banner_complement",
    "butterfly": "butterfly",
    "corner": "corner",
    "f6d": "fig6d",
    "k4p3": "k4_pendants3",
    "k4p2t": "k4_pendants2_tail",
}


def _int_token(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FamilySpecError(f"expected an integer, got {token!r}") from None


def parse_family_spec(text: str) -> FamilyDescriptor:
    """Parse a family-spec string (see SPEC_GRAMMAR) into a descriptor."""
    text = text.strip()
    if not text:
        raise FamilySpecError("empty family spec")
    head, sep, rest = text.partition(":")
    tag = head.strip().lower()
    if tag in _BARE_TAGS:
        if sep:
            raise FamilySpecError(f"family {head!r} takes no parameters, got {rest!r}")
        return FamilyDescriptor(_BARE_TAGS[tag])
    if tag in _SIMPLE_TAGS:
        name, arity = _SIMPLE_TAGS[tag]
        if not sep:
            raise FamilySpecError(f"family {head!r} needs parameters")
        params = tuple(_int_token(t) for t in rest.split(","))
        if len(params) != arity:
            raise FamilySpecError(f"family {head!r} takes {arity} parameter(s), got {rest!r}")
        return FamilyDescriptor(name, params)
    if tag == "f8d":
        if not sep:
            raise FamilySpecError("F8d needs a list of clique sizes")
        params = tuple(_int_token(t) for t in rest.split(","))
        return FamilyDescriptor("fig8d", params)
    if tag == "f6e":
        return _parse_f6e(rest if sep else "")
    raise FamilySpecError(f"unknown family tag {head!r}")


def _parse_f6e(rest: str) -> FamilyDescriptor:
    fields: dict[str, list[int]] = {}
    current: str | None = None
    for segment in rest.split(";"):
        for token in segment.split(","):
            token = token.strip()
            if not token:
                raise FamilySpecError("empty token in F6e spec")
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip().lower()
                if key not in ("t", "r", "tp", "d"):
                    raise FamilySpecError(f"unknown F6e field {key!r}")
                if key in fields:
                    raise FamilySpecError(f"duplicate F6e field {key!r}")
                fields[key] = [_int_token(value)]
                current = key
            else:
                if current != "r":
                    raise FamilySpecError(f"stray value {token!r} in F6e spec")
                fields["r"].append(_int_token(token))
    sizes = tuple(fields.get("r", []))
    t = fields["t"][0] if "t" in fields else len(sizes)
    t_prime = fields["tp"][0] if "tp" in fields else 0
    horned = fields["d"][0] if "d" in fields else 0
    if t != len(sizes):
        raise FamilySpecError(f"F6e: t={t} but {len(sizes)} clique sizes given")
    return FamilyDescriptor("fig6e", (t, *sizes, t_prime, horned))


def describe(d: FamilyDescriptor) -> str:
    """Short human-readable label for a descriptor."""
    short = {
        "path": "P", "cycle": "C", "wheel": "W", "complete": "K", "star": "S",
        "complete_bipartite": "Kb", "bi_star": "B2",
        "fig8a": "F8a", "fig8b": "F8b", "fig8c": "F8c", "fig8d": "F8d",
    }
    if d.tag in short:
        return f"{short[d.tag]}:{','.join(map(str, d.params))}"
    if d.tag == "fig6e":
        sizes, tp, horned = fig6e_parts(d.params)
        text = f"F6e:t={len(sizes)},r={','.join(map(str, sizes))};tp={tp}"
        return text + (f";d={horned}" if horned else "")
    bare = {v: k for k, v in _BARE_TAGS.items()}
    return bare.get(d.tag, d.tag)
