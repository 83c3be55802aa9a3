"""Independent oracles for the test suite.

Deliberately separate from the engine: a dense textbook Gauss-Jordan
elimination over Fraction for reduced echelon forms, ranks and null
spaces, a greedy basis scan built on it, the E2 dimensions and WMC ranks
of a page from dense ranks alone, dense list-of-rows matrix products, Kronecker
products, transposes and block assembly, the Jordan-type formula for
monodromy graded dimensions, the report on the monodromy axioms from dense
ranks and powers, dictionary convolutions for Kunneth dimensions (graded
and bigraded), the dense Koszul product of two pages, the Clebsch-Gordan
rule for the Jordan strings of a tensor product of pages, raw incidence
matrices of cycle/path graphs, and the inertia of a symmetric matrix from
its characteristic polynomial.  Nothing here imports wsscheck.
"""

from fractions import Fraction


def gauss_jordan(rows, ncols):
    """Reduced row echelon form and pivot columns by dense Gauss-Jordan over Fraction.

    Returns the len(rows) x ncols RREF as lists of Fraction (zero rows last)
    and the list of pivot columns.
    """
    zero = Fraction(0)
    m = [[Fraction(x) if x else zero for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[r0], m[piv] = m[piv], m[r0]
        pv = m[r0][col]
        m[r0] = [x / pv if x else x for x in m[r0]]
        for r in range(len(m)):
            if r != r0 and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b if b else a for a, b in zip(m[r], m[r0])]
        pivots.append(col)
    return m, pivots


def mini_rank(rows):
    """Rank as the pivot count of gauss_jordan."""
    return len(gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def null_space(rows, ncols):
    """A basis of {v : rows v = 0}: one vector per free column f of gauss_jordan,
    1 at f and minus the reduced rows' entries at f at their pivots."""
    red, pivots = gauss_jordan(rows, ncols)
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(red, pivots):
                v[p] = -row[f]
            out.append(v)
    return out


def e2_wmc_entries(page):
    """The WMC rank check on E2 of a dense page, (r, w, dim_source, dim_target, rank, iso).

    page is (n, dims, d1, nb): dims maps each cell (i, j) to its dimension,
    and d1 and nb map a cell to its block into (i + 1, j) or (i + 2, j - 2),
    as a list of rows; a missing block is zero.  E2 at a cell has dimension
    dim Ker d1 minus the rank of the d1 into it.  N^r, composed from the
    blocks, induces from E2^{-r,w+r} to E2^{r,w-r} the rank that N^r Ker_s
    adds to the images at the target: rank(images_t + N^r Ker_s) minus
    rank(images_t).  The entries run over r = 0 .. n and w = 0 .. 2n; at
    r = 0 the rank is the source's E2 dimension.
    """
    n, dims, d1, nb = page

    def block(blocks, cell, target):
        if cell in blocks:
            return blocks[cell]
        return [[0] * dims.get(cell, 0) for _ in range(dims.get(target, 0))]

    def kernel(i, j):
        return null_space(block(d1, (i, j), (i + 1, j)), dims.get((i, j), 0))

    def images(i, j):
        return dense_transpose(block(d1, (i - 1, j), (i, j)), dims.get((i - 1, j), 0))

    def e2_dim(i, j):
        return len(kernel(i, j)) - mini_rank(images(i, j))

    out = []
    for r in range(n + 1):
        for w in range(2 * n + 1):
            vectors = kernel(-r, w + r)
            for i in range(-r, r, 2):
                step = block(nb, (i, w - i), (i + 2, w - i - 2))
                vectors = [[sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in step]
                           for v in vectors]
            ds, dt = e2_dim(-r, w + r), e2_dim(r, w - r)
            target = images(r, w - r)
            rank = mini_rank(target + vectors) - mini_rank(target)
            out.append((r, w, ds, dt, rank, ds == dt and rank == ds))
    return out


def greedy_picks(vectors):
    """The positions a left-to-right scan keeps: each vector outside the
    span of the vectors kept before it."""
    kept = []
    for p, v in enumerate(vectors):
        if mini_rank([vectors[q] for q in kept] + [v]) > len(kept):
            kept.append(p)
    return kept


def dense_matmul(a, b, ncols):
    """a @ b for lists of rows, b having ncols columns: each row of the
    product sums, over the nonzero entries x = a[i][k], x times row k of b."""
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_transpose(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def dense_assemble(nrows, ncols, placements):
    """An nrows x ncols matrix, the sum of the (row_offset, col_offset, rows) blocks."""
    out = [[Fraction(0)] * ncols for _ in range(nrows)]
    for ro, co, blk in placements:
        for i, row in enumerate(blk):
            for j, x in enumerate(row):
                out[ro + i][co + j] += x
    return out


def dense_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def koszul_product(p, q):
    """The tensor product of two pages, dense, as (dims, d1, n).

    A page is (dims, d1, n): dims maps each cell (i, j) to its dimension,
    and d1 and n map a cell to its block into (i + 1, j) or (i + 2, j - 2),
    as a list of rows; a missing block is zero.  Cell (i, j) of the product
    is the sum of c1 x c2 over the pairs of cells with c1 + c2 = (i, j),
    taken in sorted order, c1 first, and e_x x f_y is vector x dim(c2) + y
    of c1 x c2.  The differential is d x 1 + (-1)^(column of c1) 1 x d and
    the monodromy N x 1 + 1 x N, each Kronecker product placed from its
    source pair to its target pair.  The product has a block out of each
    cell whose target is a cell.
    """
    (dims_p, d1_p, n_p), (dims_q, d1_q, n_q) = p, q
    offsets, dims = {}, {}
    for c1 in sorted(dims_p):
        for c2 in sorted(dims_q):
            cell = (c1[0] + c2[0], c1[1] + c2[1])
            offsets[c1, c2] = dims.get(cell, 0)
            dims[cell] = offsets[c1, c2] + dims_p[c1] * dims_q[c2]

    def blocks(di, dj, bp, bq, signed):
        placements = {}
        for (c1, c2), col in offsets.items():
            sign = -1 if signed and c1[0] % 2 else 1
            parts = []
            if c1 in bp:
                parts.append((((c1[0] + di, c1[1] + dj), c2),
                              dense_kron(bp[c1], dense_identity(dims_q[c2]))))
            if c2 in bq:
                signed_block = [[sign * x for x in row] for row in bq[c2]]
                parts.append(((c1, (c2[0] + di, c2[1] + dj)),
                              dense_kron(dense_identity(dims_p[c1]), signed_block)))
            cell = (c1[0] + c2[0], c1[1] + c2[1])
            for target, block in parts:
                if block:
                    placements.setdefault(cell, []).append((offsets[target], col, block))
        return {(i, j): dense_assemble(dims[(i + di, j + dj)], d, placements.get((i, j), []))
                for (i, j), d in dims.items() if (i + di, j + dj) in dims}

    return dims, blocks(1, 0, d1_p, d1_q, True), blocks(2, -2, n_p, n_q, False)


def cycle_incidence(n):
    """Signed incidence of the n-cycle, point p joins components (a, b), a < b."""
    rows = []
    for i in range(n):
        a, b = sorted((i, (i + 1) % n))
        row = [0] * n
        row[a] = 1
        row[b] = -1
        rows.append(row)
    return rows


def path_incidence(n):
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[i + 1] = -1
        rows.append(row)
    return rows


def jordan_graded_dims(block_sizes, k):
    """dim Gr_{c+k} of the monodromy filtration of a Jordan-type nilpotent.

    A block of size s contributes one dimension to each k with |k| <= s - 1
    and k = s - 1 (mod 2).
    """
    total = 0
    for s in block_sizes:
        if abs(k) <= s - 1 and (k - (s - 1)) % 2 == 0:
            total += 1
    return total


def convolve_dims(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return out


def convolve_power(dims, k):
    acc = {0: 1}
    for _ in range(k):
        acc = convolve_dims(acc, dims)
    return acc


def kunneth_power(dims, k):
    """Dims {(i, j): d} of the k-th tensor power of a bigraded space with dims
    dims: the k-fold convolution by bidegree.  By Kunneth over Q, the E2 dims
    of a page's k-th tensor power are this power of the page's E2 dims."""
    acc = {(0, 0): 1}
    for _ in range(k):
        out = {}
        for (i, j), a in acc.items():
            for (p, q), b in dims.items():
                out[(i + p, j + q)] = out.get((i + p, j + q), 0) + a * b
        acc = out
    return acc


def graded_strings(dims, power_rank):
    """The Jordan strings of a page's N, as a sorted list of (w, start, length).

    dims maps each cell (i, j) to its dimension, and power_rank(i, j, m) is
    the rank of N^m from (i, j) to (i + 2m, j - 2m).  N keeps the
    antidiagonal w = i + j and raises the column by 2, so a homogeneous
    Jordan basis splits each antidiagonal into strings of columns start,
    start + 2, ..., and N^m has one rank for each string through both of its
    columns.  The strings through column i that reach i + 2m and do not come
    from i - 2 number power_rank(i, j, m) - power_rank(i - 2, j + 2, m + 1).
    """
    def rank(i, j, m):
        if (i, j) not in dims or (i + 2 * m, j - 2 * m) not in dims:
            return 0
        return power_rank(i, j, m) if m else dims[(i, j)]

    out = []
    for (i, j) in sorted(dims):
        m = 0
        while rank(i, j, m):
            reach = rank(i, j, m) - rank(i - 2, j + 2, m + 1)
            longer = rank(i, j, m + 1) - rank(i - 2, j + 2, m + 2)
            out.extend([(i + j, i, m + 1)] * (reach - longer))
            m += 1
    return sorted(out)


def clebsch_gordan(strings_p, strings_q):
    """The Jordan strings of N = N x 1 + 1 x N on the tensor of two pages.

    A string of length a from column s is the sl2-module J_a shifted to
    centre s + a - 1, so over Q, J_a x J_b is the sum of J_{a+b-1-2k} for
    k < min(a, b), each centred at the sum of the two centres: it starts at
    column s1 + s2 + 2k, on antidiagonal w1 + w2.
    """
    return sorted((w1 + w2, s1 + s2 + 2 * k, a + b - 1 - 2 * k)
                  for w1, s1, a in strings_p for w2, s2, b in strings_q
                  for k in range(min(a, b)))


def string_dims(strings):
    """Cell dims {(i, j): d} of the strings: a string covers each of its columns."""
    out = {}
    for w, s, a in strings:
        for i in range(s, s + 2 * a, 2):
            out[(i, w - i)] = out.get((i, w - i), 0) + 1
    return out


def string_rank(strings, r, w):
    """Rank of N^r from (-r, w + r) to (r, w - r): the strings through both columns."""
    return sum(1 for v, s, a in strings
               if v == w and s <= -r and (s + r) % 2 == 0 and s + 2 * (a - 1) >= r)


def axiom_report(nrows, steps, center, e):
    """The verdicts on the two monodromy axioms, by dense ranks, as a report dict.

    nrows is the nilpotent N as a list of rows and e its nilpotency index;
    steps lists (index, vectors) by increasing index, the step at index i
    being the span of the vectors of the last step at or below i, zero below
    them all.  N M_i lies in M_{i-2} iff N M_i adds no rank to M_{i-2}, and
    the rank N^r induces from Gr_{c+r} to Gr_{c-r} is the rank N^r M_{c+r}
    adds to M_{c-r-1}; N^r = 0 from r = e on.  The powers are dense products
    formed here.  The dict has the layout of the package's report.
    """
    n = len(nrows)

    def step(i):
        vectors = []
        for idx, vecs in steps:
            if idx <= i:
                vectors = [list(v) for v in vecs]
        return vectors

    def dim(i):
        return mini_rank(step(i))

    def added(below, vectors):
        return mini_rank(below + vectors) - mini_rank(below)

    def apply(mat, vectors):
        return [[sum((row[k] * v[k] for k in range(n)), Fraction(0)) for row in mat]
                for v in vectors]

    lo, hi = steps[0][0], steps[-1][0]
    lowering = [{"index": i, "ok": added(step(i - 2), apply(nrows, step(i))) == 0}
                for i in range(lo, hi + 1)]
    graded = []
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for r in range(max(hi - center, center - lo, 0) + 2):
        dp = dim(center + r) - dim(center + r - 1)
        dm = dim(center - r) - dim(center - r - 1)
        rk = added(step(center - r - 1), apply(power, step(center + r))) if r < e else 0
        graded.append({"r": r, "dim_plus": dp, "dim_minus": dm, "rank": rk,
                       "ok": dp == dm and rk == dp})
        power = dense_matmul(power, nrows, n)
    ok = all(x["ok"] for x in lowering) and all(g["ok"] for g in graded)
    return {"lowering": lowering, "graded_isos": graded, "ok": ok}


def charpoly(a):
    """Coefficients c_0 .. c_n of det(t I - a) by Faddeev-LeVerrier over Fraction.

    M_1 = I and M_{k+1} = a M_k + c_{n-k} I, with c_{n-k} = -tr(a M_k) / k.
    """
    n = len(a)
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = dense_matmul(a, m, n)
        c[n - k] = -sum(am[i][i] for i in range(n)) / k
        m = [[x + c[n - k] if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(am)]
    return c


def inertia_by_descartes(a):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Its characteristic polynomial is real-rooted, so Descartes' rule of signs
    is exact: the sign changes of its coefficients count the positive roots,
    those of p(-t) the negative ones, and the power of t dividing p the zero
    roots.
    """
    c = charpoly(a)

    def changes(coeffs):
        signs = [x > 0 for x in coeffs if x]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    zero = next(k for k, x in enumerate(c) if x)
    return changes(c), changes([x if k % 2 == 0 else -x for k, x in enumerate(c)]), zero
