"""Lefschetz-structure checks for relative dimension 3.

Given a validated datum with threefold components A (level 1) and surface
double locus B (level 2), this module computes, exactly, the chain of facts
that force the middle monodromy map on E2 to be an isomorphism: primitive
decompositions, the splitting of each transfer image into a
Lefschetz-aligned part (``im0``) and a residual quotient (``im1``),
power-of-L isomorphisms between them, dimension bookkeeping, Hodge-index
signature conditions, nondegeneracy of restricted pairings, the splitting
isomorphism with its orthogonality, and the kernel/image exchange identity
in surface H^2.  ``check_e2_middle`` then confirms that this independent
route agrees with the rank computation on E2.

Every ``*_decompose`` and ``check_*`` function requires a datum that
``strata.validate`` passes (``cli`` gates the suite with
``strata.require_valid``).  What the axioms imply (the hard Lefschetz
splittings, L commuting with res and gys, Im(res_2 gys_0) inside Ker gys_2)
is read, not re-checked; each docstring gives its derivation.  What no
axiom implies is computed: the symmetry of the Lefschetz form on primitive
H^2, that L^2 and the forms keep components apart, the duality of the two
middle rows, and every dimension, rank and signature a check reports.

Throughout, ``res_s`` is the degree-s restriction map from A into B, and
``gys_s`` the degree-s Gysin map back.

Every subspace the suite builds is a ``ratlin.Subspace``, held as its
rows, {pivot: coprime integer row leading there}: the checks read only
dimensions, containments, and ranks and signatures of Gram matrices, and
none of these depends on the basis.  Images, kernels, sums, intersections
and containment are ``image``, ``kernel``, ``subspace_sum``, ``intersect``
and ``contains``, and Gram matrices and images under L are formed on the
rows.  A canonical form is read only for a witness, when a check fails and
prints one (``_first_outside``): the first row of the RREF of the failing
subspace, so the bytes do not depend on the rows held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InstanceInconsistency,
    InternalConsistencyError,
    InvalidComplex,
    InvalidForm,
    PreconditionError,
)
from .ratlin import (
    RatMatrix,
    Subspace,
    contains,
    image,
    intersect,
    kernel,
    rank,
    row_space,
    signature,
    subspace_sum,
)
from .specseq import E2Page, WmcVerdict, e1_pairing
from .strata import SemistableDatum


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    details: dict

    def to_json_dict(self):
        return {"check": self.name, "status": "pass" if self.ok else "fail",
                "details": self.details}


# -- the duality lemma for three-term complexes ---------------------------------


@dataclass(frozen=True)
class DualTriple:
    """A complex V1 -f-> V2 -g-> V3 with a nondegenerate form on V2.

    The form must be symmetric or antisymmetric: the identification of V2
    with its dual is only compatible with the complex-versus-dual-complex
    comparison for (anti)symmetric forms.  Adjoints are taken for the form
    P: g* = (P^T)^-1 g^T has <g* phi, .> = phi(g .), and f* = f^T P^T.
    """

    f: RatMatrix
    g: RatMatrix
    pairing: RatMatrix

    @classmethod
    def build(cls, f, g, pairing):
        if f.rows != g.cols or pairing.rows != pairing.cols or pairing.rows != f.rows:
            raise InvalidForm("dual triple shapes are inconsistent")
        if not (g @ f).is_zero():
            raise InvalidComplex("g o f != 0")
        pt = pairing.transpose()
        if pairing != pt and pairing != -pt:
            raise InvalidForm("pairing must be symmetric or antisymmetric")
        if rank(pairing) != pairing.rows:
            raise InvalidForm("pairing is degenerate")
        return cls(f, g, pairing)

    @cached_property
    def ker_g(self) -> Subspace:
        return kernel(self.g)

    @cached_property
    def im_gstar(self) -> Subspace:
        """Im g* as the P-annihilator of Ker g, {x : <x, v> = 0 for all v in Ker g}.

        With <x, v> = x^T P v, <g* phi, v> = phi(g v) vanishes on Ker g, so
        Im g* lies in the annihilator.  The two have one dimension: Im g* =
        (P^T)^-1 Im g^T has dim rank g, and P is nondegenerate, so the
        dim Ker g conditions x^T P v = 0 over a basis v of Ker g are
        independent and leave dim V2 - dim Ker g = rank g.  So Im g* is the
        kernel of K P^T, K the rows of Ker g, and P is never inverted.
        """
        return kernel(_matrix(self.ker_g) @ self.pairing.transpose())

    @cached_property
    def ker_fstar(self) -> Subspace:
        return kernel(self.f.transpose() @ self.pairing.transpose())


@dataclass(frozen=True)
class DualComplexReport:
    hypothesis: bool      # Im f inside Im g*
    criterion: bool       # Ker g intersect Im g* inside Im f
    iso: bool             # None when the hypothesis fails
    dim_primal: int
    dim_dual: int
    rank_induced: int
    witness: tuple        # vector in (Ker g cap Im g*) \\ Im f, or None

    def to_json_dict(self):
        return {
            "hypothesis": self.hypothesis,
            "criterion": self.criterion,
            "iso": self.iso,
            "dim_primal": self.dim_primal,
            "dim_dual": self.dim_dual,
            "rank_induced": self.rank_induced,
            "witness": None if self.witness is None else [str(x) for x in self.witness],
        }


def _first_outside(sub: Subspace, other: Subspace):
    """The first RREF row of sub that other does not contain, or None.

    The RREF is canonical, so the witness does not depend on the rows held.
    """
    canon = sub.echelon
    rows = (tuple(canon.row_list(k)) for k in range(canon.rows))
    return next((row for row in rows if not other.contains_vector(row)), None)


def _matrix(sub: Subspace) -> RatMatrix:
    """The rows of sub as the rows of a matrix."""
    return RatMatrix(sub.dim, sub.ambient_dim, tuple(sub.rows.values()))


def _mapped(m: RatMatrix, sub: Subspace) -> Subspace:
    """m of sub: the span of the rows m x over the rows x of sub."""
    return row_space(RatMatrix(sub.dim, m.rows, tuple(_matrix(sub).product_rows(m.transpose()))))


def _gram(a: RatMatrix, form: RatMatrix, b: RatMatrix = None) -> RatMatrix:
    """The matrix of x P y^T over the rows x of a and y of b (default a)."""
    return a @ form @ (a if b is None else b).transpose()


def dual_cohomology_iso(triple: DualTriple) -> DualComplexReport:
    """Decide whether the pairing-induced map Ker g/Im f -> Ker f*/Im g* is an iso.

    P is nondegenerate, so the primal and dual cohomologies share their
    dimension, dim V2 - rank f - rank g.  The induced map is defined under
    the hypothesis Im f in Im g*, which puts Ker g in Ker f* since
    <v, g* phi> = +-phi(g v), and is an isomorphism exactly when
    Ker g cap Im g* lies in Im f.
    """
    ker_g, im_f = triple.ker_g, image(triple.f)
    im_gstar, ker_fstar = triple.im_gstar, triple.ker_fstar
    dim_primal = ker_g.dim - im_f.dim
    dim_dual = ker_fstar.dim - im_gstar.dim
    overlap = intersect(ker_g, im_gstar)
    criterion = contains(im_f, overlap)
    hypothesis = contains(im_gstar, im_f)
    witness = None if criterion else _first_outside(overlap, im_f)
    iso = None
    rank_induced = 0
    if hypothesis:
        rank_induced = _induced_quotient_rank(ker_g, im_gstar)
        iso = rank_induced == dim_primal
        if iso != criterion:
            raise InternalConsistencyError(
                "duality-lemma verdict disagrees with its criterion"
            )
    return DualComplexReport(
        hypothesis=hypothesis,
        criterion=criterion,
        iso=iso,
        dim_primal=dim_primal,
        dim_dual=dim_dual,
        rank_induced=rank_induced,
        witness=witness,
    )


# -- primitive and image decompositions -----------------------------------------


def _require_threefold(datum: SemistableDatum):
    if datum.n != 3:
        raise PreconditionError(
            f"threefold machinery requires relative dimension 3, got {datum.n}"
        )


@dataclass(frozen=True)
class PrimitiveDecomposition:
    """The primitive parts, with the matrices they come from."""

    l2_3fold: RatMatrix       # L^2 : H^2 -> H^6 of the top stratum
    lefschetz_form: RatMatrix  # (x, y) -> <x, L y> on H^2 of the top stratum
    prim2_3fold: Subspace     # Ker(L^2 : H^2 -> H^6)
    prim2_surf: Subspace      # Ker(L : H^2 -> H^4) on the surface level


def _lef_pow(datum, level, start_degree, steps):
    mat = RatMatrix.identity(datum.h(level, start_degree))
    s = start_degree
    for _ in range(steps):
        mat = datum.lefschetz_map(level, s) @ mat
        s += 2
    return mat


def primitive_decompose(datum: SemistableDatum) -> PrimitiveDecomposition:
    """Split H^2/H^4 of both levels along powers of L, for a validated datum.

    Hard Lefschetz makes the splits direct: L^3 on H^0(A) is injective, so
    H^2(A) = Ker L^2 + L H^0(A); the iso L : H^2(A) -> H^4(A) carries that
    to H^4(A); L^2 on H^0(B) is injective, so H^2(B) = Ker L + L H^0(B).
    No axiom makes <x, L y> symmetric on primitive H^2 when d = 3.
    """
    _require_threefold(datum)
    l2_a = _lef_pow(datum, 1, 2, 2)           # H^2(A) -> H^6(A)
    prim2_a = kernel(l2_a)
    gram_full = datum.pairing(1, 2) @ datum.lefschetz_map(1, 2)
    gram = _gram(_matrix(prim2_a), gram_full)
    if gram != gram.transpose():
        raise InvalidForm("Lefschetz pairing on primitive H^2 is not symmetric")
    return PrimitiveDecomposition(
        l2_3fold=l2_a,
        lefschetz_form=gram_full,
        prim2_3fold=prim2_a,
        prim2_surf=kernel(datum.lefschetz_map(2, 2)),
    )


@dataclass(frozen=True)
class ImDecomposition:
    """Transfer images split into a Lefschetz-aligned im0 and residual im1.

    im0_res / im0_gys map degree i in {0, 2, 4} to the distinguished
    subspace of the corresponding transfer image; im1 dimensions are the
    quotient dimensions.
    """

    im_res: dict
    im_gys: dict
    im0_res: dict
    im0_gys: dict

    def im1_res_dim(self, i):
        return self.im_res[i].dim - self.im0_res[i].dim

    def im1_gys_dim(self, i):
        return self.im_gys[i].dim - self.im0_gys[i].dim


def im_decompose(datum: SemistableDatum, prim: PrimitiveDecomposition) -> ImDecomposition:
    """The transfer-image splittings of a validated datum.

    Axiom 5 (res_2 L = L res_0, res_4 L^2 = L^2 res_0, gys_2 L = L gys_0)
    puts each im0 inside its transfer image; L H^0(B) cap Ker L = 0 (hard
    Lefschetz on B) makes the sum forming im0(res_2) direct.  L Im res_0 and
    L^2 Im res_0 are L and L^2 applied to the rows of Im res_0.
    """
    _require_threefold(datum)
    im_res = {i: image(datum.restriction_map(1, i)) for i in (0, 2, 4)}
    im_gys = {i: image(datum.gysin_map(2, i)) for i in (0, 2, 4)}
    l_im_res0 = _mapped(datum.lefschetz_map(2, 0), im_res[0])
    im0_res = {
        0: im_res[0],
        2: subspace_sum(intersect(im_res[2], prim.prim2_surf), l_im_res0),
        4: _mapped(datum.lefschetz_map(2, 2), l_im_res0),
    }
    im0_gys0 = intersect(im_gys[0], prim.prim2_3fold)
    im0_gys = {
        0: im0_gys0,
        2: _mapped(datum.lefschetz_map(1, 2), im0_gys0),
        4: Subspace.zero(im_gys[4].ambient_dim),
    }
    return ImDecomposition(im_res=im_res, im_gys=im_gys, im0_res=im0_res, im0_gys=im0_gys)


# -- the individual checks -------------------------------------------------------


def _induced_quotient_rank(u: Subspace, sub: Subspace) -> int:
    """dim (u + sub) - dim sub."""
    return subspace_sum(sub, u).dim - sub.dim


def check_lefschetz_isos(datum, prim, dec) -> CheckResult:
    """L and L^2 exchange the im0 parts and the im1 quotients in pairs.

    For a validated datum, im0(res_4) = L^2 im0(res_0) and im0(gys_2) =
    L im0(gys_0) by construction, so those entries compare dims; axiom 5
    maps L Im res_2 into Im res_4, L im0(res_2) onto im0(res_4) and
    L^2 Im gys_0 into Im gys_4, so L and L^2 act on the quotients.
    """
    l_im_res2 = _mapped(datum.lefschetz_map(2, 2), dec.im_res[2])
    l2_im_gys0 = _mapped(prim.l2_3fold, dec.im_gys[0])
    im1_res2, im1_gys0 = dec.im1_res_dim(2), dec.im1_gys_dim(0)
    entries = {
        "l2_im0_res0_to_im0_res4": dec.im0_res[0].dim == dec.im0_res[4].dim,
        "l_im0_gys0_to_im0_gys2": dec.im0_gys[0].dim == dec.im0_gys[2].dim,
        # the induced L : im1(res_2) -> im1(res_4) and L^2 : im1(gys_0) -> Im gys_4
        "l_im1_res2_to_im1_res4": im1_res2 == dec.im1_res_dim(4)
        and _induced_quotient_rank(l_im_res2, dec.im0_res[4]) == im1_res2,
        "l2_im1_gys0_to_im1_gys4": im1_gys0 == dec.im1_gys_dim(4)
        and l2_im_gys0.dim == im1_gys0,
    }
    return CheckResult("lefschetz-isos", all(entries.values()), entries)


def check_image_dims(dec: ImDecomposition) -> CheckResult:
    """dim im0 of each restriction equals dim im1 of the paired Gysin map,
    on the ``im_decompose`` of a validated datum."""
    details = {}
    for i in (0, 2, 4):
        details[f"im0_res{i}_eq_im1_gys{i}"] = (
            dec.im0_res[i].dim == dec.im1_gys_dim(i)
        )
    for i in (0, 2):
        details[f"im0_gys{i}_eq_im1_res{i + 2}"] = (
            dec.im0_gys[i].dim == dec.im1_res_dim(i + 2)
        )
    details["dims"] = {
        "im0_res": {i: dec.im0_res[i].dim for i in (0, 2, 4)},
        "im1_res": {i: dec.im1_res_dim(i) for i in (0, 2, 4)},
        "im0_gys": {i: dec.im0_gys[i].dim for i in (0, 2, 4)},
        "im1_gys": {i: dec.im1_gys_dim(i) for i in (0, 2, 4)},
    }
    ok = all(v for k, v in details.items() if k != "dims")
    return CheckResult("image-dims", ok, details)


def _component_indices(level, degree):
    """The basis indices of degree ``degree`` on each component, from one pass."""
    groups = [[] for _ in range(level.components)]
    for t, c in enumerate(level.component_blocks.get(degree, ())):
        groups[c].append(t)
    return groups


def check_hodge_index(datum: SemistableDatum, prim: PrimitiveDecomposition) -> CheckResult:
    """Signature conditions: (1, h^2 - 1) per surface component, negative
    definite Lefschetz form on primitive H^2 per threefold component, for a
    validated datum.  Once L^2 does not mix components, the form on one
    component's primitives restricts the symmetric one of ``prim``; it is
    read on the rows of the ``kernel`` of the component's L^2 block, whose
    count is prim2_dim, and Sylvester's law makes the signature independent
    of that basis."""
    _require_threefold(datum)
    details = {"surface": [], "threefold": []}
    ok = True
    if 2 in datum.levels:
        lvl = datum.levels[2]
        p22 = datum.pairing(2, 2)
        for c, idx in enumerate(_component_indices(lvl, 2)):
            mine = set(idx)
            if any(b not in mine for a in idx for b in p22.data[a]):
                raise InvalidForm(
                    f"surface pairing mixes components at component {c}"
                )
            sub = p22.submatrix(idx, idx)
            sig = signature(sub)
            good = len(idx) >= 1 and sig == (1, len(idx) - 1, 0)
            details["surface"].append({"component": c, "signature": sig, "ok": good})
            ok = ok and good
    lvl1 = datum.levels[1]
    blocks2 = lvl1.component_blocks.get(2, ())
    blocks6 = lvl1.component_blocks.get(6, ())
    l2_a = prim.l2_3fold
    gram_full = prim.lefschetz_form
    # the components whose H^2 L^2 sends into another component's H^6; a
    # degree with no component blocks has no index on any component
    mixed = {blocks2[b] for a, c6 in enumerate(blocks6) if blocks2
             for b in l2_a.data[a] if blocks2[b] != c6}
    idx6 = _component_indices(lvl1, 6)
    for c, idx2 in enumerate(_component_indices(lvl1, 2)):
        mine = set(idx2)
        if c in mixed:
            raise InvalidForm(f"L^2 mixes components at threefold component {c}")
        if any(b not in mine for a in idx2 for b in gram_full.data[a]):
            raise InvalidForm(
                f"Lefschetz pairing mixes components at threefold component {c}"
            )
        prim_c = _matrix(kernel(l2_a.submatrix(idx6[c], idx2)))
        sig = signature(_gram(prim_c, gram_full.submatrix(idx2, idx2)))
        good = sig == (0, prim_c.rows, 0)
        details["threefold"].append(
            {"component": c, "prim2_dim": prim_c.rows, "signature": sig, "ok": good}
        )
        ok = ok and good
    return CheckResult("hodge-index", ok, details)


def check_restricted_pairings(datum, prim, dec) -> CheckResult:
    """Cup form restricted to im0(res_2), Lefschetz form restricted to im0(gys_0),
    for a validated datum and its decompositions."""
    gram1 = _gram(_matrix(dec.im0_res[2]), datum.pairing(2, 2))
    ok1 = rank(gram1) == gram1.rows
    gram2 = _gram(_matrix(dec.im0_gys[0]), prim.lefschetz_form)
    ok2 = rank(gram2) == gram2.rows
    return CheckResult(
        "restricted-pairings",
        ok1 and ok2,
        {
            "cup_on_im0_res2_nondegenerate": ok1,
            "lefschetz_on_im0_gys0_nondegenerate": ok2,
            "dims": {"im0_res2": gram1.rows, "im0_gys0": gram2.rows},
        },
    )


def check_splitting_iso(datum, prim, dec) -> CheckResult:
    """im0(gys_0) -> Im res_2 -> im1(res_2) is bijective, and the resulting
    splitting of Im res_2 is orthogonal for the surface cup form, for a
    validated datum and its decompositions."""
    moved = _mapped(datum.restriction_map(1, 2), dec.im0_gys[0])
    rk = _induced_quotient_rank(moved, dec.im0_res[2])
    src = dec.im0_gys[0].dim
    tgt = dec.im1_res_dim(2)
    iso = src == tgt and rk == src
    orthogonal = True
    if iso and src > 0:
        cross = _gram(_matrix(moved), datum.pairing(2, 2), _matrix(dec.im0_res[2]))
        orthogonal = cross.is_zero()
    return CheckResult(
        "splitting-iso",
        iso and orthogonal,
        {"source_dim": src, "target_dim": tgt, "rank": rk,
         "iso": iso, "orthogonal": orthogonal},
    )


def check_kernel_image_identity(datum: SemistableDatum, dec: ImDecomposition) -> CheckResult:
    """Ker(gys_2) cap Im(res_2) equals Im(res_2 o gys_0) in surface H^2.

    Im res_2 is dec.im_res[2], and Im(res_2 o gys_0) is res_2 applied to
    dec.im_gys[0].  On a validated datum the right side lies in the left:
    axiom 3 gives res_2 gys_0 = -tau rho out of the surface level, and
    gys_2 tau = 0 by axiom 2.
    """
    _require_threefold(datum)
    lhs = intersect(kernel(datum.gysin_map(2, 2)), dec.im_res[2])
    rhs = _mapped(datum.restriction_map(1, 2), dec.im_gys[0])
    holds = lhs == rhs
    witness = None if holds else _first_outside(lhs, rhs)
    return CheckResult(
        "kernel-image-identity",
        holds,
        {"lhs_dim": lhs.dim, "rhs_dim": rhs.dim,
         "witness": None if witness is None else [str(x) for x in witness]},
    )


def check_e2_middle(datum: SemistableDatum, e2: E2Page, verdict: WmcVerdict,
                    key: CheckResult) -> CheckResult:
    """Re-derive the middle monodromy isomorphism through the duality lemma.

    Applies the three-term lemma to the row ending at total degree 4, whose
    pairing-dual is the row starting at total degree 2 (verified, not
    assumed), and cross-checks the verdict against the E2 rank computation
    at (r, w) = (1, 3), read from verdict = check_wmc(e2).  Uses the
    kernel/image identity, key = check_kernel_image_identity(datum, dec), as the
    inclusion engine the way the containment argument chains through it.
    The datum is validated, so the lemma's hypothesis holds: N = 1 on
    E1^{-1,4} and N d1 = d1 N give Im f_1 in Im f_2 = Im g_1* (rows_dual).
    """
    _require_threefold(datum)
    page = e2.page
    f1 = page.d1_block(-2, 4)
    g1 = page.d1_block(-1, 4)
    f2 = page.d1_block(0, 2)
    g2 = page.d1_block(1, 2)
    nblk = page.n_block(-1, 4)
    dim_v2 = page.dim(-1, 4)
    if page.dim(1, 2) != dim_v2 or nblk != RatMatrix.identity(dim_v2):
        raise InternalConsistencyError(
            "monodromy block at (-1, 4) is not the identity"
        )
    triple = DualTriple.build(f1, g1, e1_pairing(datum, -1, 4))
    rows_dual = triple.im_gstar == image(f2) and triple.ker_fstar == kernel(g2)
    if not rows_dual:
        raise InstanceInconsistency(
            "the two middle rows are not dual for the declared pairings"
        )
    lemma = dual_cohomology_iso(triple)
    if key.ok and not lemma.criterion:
        raise InternalConsistencyError(
            "kernel/image identity holds but the containment criterion fails"
        )
    wmc_entry = verdict.at(1, 3)
    if wmc_entry.iso != lemma.iso:
        raise InternalConsistencyError(
            "duality-lemma route and E2 rank route disagree at (r, w) = (1, 3)"
        )
    ok = bool(lemma.iso)
    return CheckResult(
        "e2-middle",
        ok,
        {
            "rows_dual": rows_dual,
            "lemma": lemma.to_json_dict(),
            "kernel_image_identity": key.ok,
            "wmc_at_r1_w3": wmc_entry.iso,
            "agreement": True,
        },
    )


# -- suite orchestration ---------------------------------------------------------


@dataclass(frozen=True)
class ThreefoldReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def to_json_dict(self):
        return {"ok": self.ok, "checks": [c.to_json_dict() for c in self.checks]}


def run_threefold_suite(datum: SemistableDatum, e2: E2Page, verdict: WmcVerdict) -> ThreefoldReport:
    """Full suite on a validated threefold datum, cross-checked against its E2 page.

    verdict is check_wmc(e2), the page's unfiltered WMC verdict.
    """
    prim = primitive_decompose(datum)
    dec = im_decompose(datum, prim)
    key = check_kernel_image_identity(datum, dec)
    return ThreefoldReport((
        check_hodge_index(datum, prim),
        check_lefschetz_isos(datum, prim, dec),
        check_image_dims(dec),
        check_restricted_pairings(datum, prim, dec),
        check_splitting_iso(datum, prim, dec),
        key,
        check_e2_middle(datum, e2, verdict, key),
        CheckResult("wmc", verdict.overall, verdict.to_json_dict()),
    ))
