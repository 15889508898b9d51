"""Exponential tiling instances and their encoding as PHP over domain {0,1}.

A tiling instance fixes a tile system plus a prefix t_1..t_m of the first row;
the question is whether the 2^m-by-2^m grid admits a valid tiling.  The
encoding produces 2m two-element factor structures whose product realizes the
horizontal/vertical successor relations as unions of decomposable pieces, and
a target whose domain is the tile set.  Grid cell (x, y) is the product
element whose 2m bits are x then y.  solve-tiling searches the same factors
with y's first, so there cell (x, y) is product rank y * 2^m + x, row-major
order is rank order, and the grid is read off the search's value list as
rows: rows[y][x] is the tile of cell (x, y), the one grid form of this module.

Two encoding modes exist.  "exact" realizes each successor piece with
equality, using the one-directional bit relations s01/s10; "paper-literal"
uses the symmetric difference relation throughout, which realizes a strict
superset of the successor pieces and is kept for study only.
"""

from .core import (
    PhpInstance, Record, Signature, Structure, _RankMap, check_guard, load_json, string_list,
    string_rows,
)
from .errors import CertificateError, GuardExceededError, InvalidStructureError

MODES = ("exact", "paper-literal")

# Bit relations over {0,1}; elements are the strings "0" and "1".
ID = (("0", "0"), ("1", "1"))
DIFF = (("0", "1"), ("1", "0"))
S01 = (("0", "1"),)
S10 = (("1", "0"),)

BRUTE_FORCE_MAX_M = 3


class TileSystem(Record):
    """Tiles, sorted whatever order they were declared in, and their compatibility pairs."""

    tiles: tuple
    hcompat: frozenset  # ordered pairs (left, right)
    vcompat: frozenset  # ordered pairs (below, above)

    def __post_init__(self):
        object.__setattr__(self, "tiles", tuple(sorted(self.tiles)))
        object.__setattr__(self, "hcompat", frozenset(tuple(p) for p in self.hcompat))
        object.__setattr__(self, "vcompat", frozenset(tuple(p) for p in self.vcompat))
        declared = set(self.tiles)
        if len(declared) != len(self.tiles):
            raise InvalidStructureError("duplicate tile names")
        for pair in self.hcompat | self.vcompat:
            if len(pair) != 2 or not set(pair) <= declared:
                raise InvalidStructureError(f"compatibility pair {pair!r} is malformed")


class TilingInstance(Record):
    system: TileSystem
    prefix: tuple  # t_1..t_m; m is the grid exponent

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if not self.prefix:
            raise InvalidStructureError("prefix must be nonempty")
        if not set(self.prefix) <= set(self.system.tiles):
            raise InvalidStructureError("prefix uses undeclared tiles")

    @property
    def m(self):
        return len(self.prefix)


def check_tiling(rows, inst):
    """True iff rows, the grid as rows[y][x], is 2^m square, has the prefix and is compatible."""
    n, sys = 2**inst.m, inst.system
    if len(rows) != n or any(len(row) != n for row in rows):
        return False
    return (
        tuple(rows[0][: inst.m]) == inst.prefix
        and all(sys.hcompat.issuperset(zip(row, row[1:])) for row in rows)
        and all(sys.vcompat.issuperset(zip(below, above)) for below, above in zip(rows, rows[1:]))
    )


def brute_force_tiling(inst):
    """Exhaustive backtracking oracle over all grid assignments (m <= 3 only): rows[y][x], or None."""
    if inst.m > BRUTE_FORCE_MAX_M:
        raise GuardExceededError(
            f"brute-force oracle is limited to m <= {BRUTE_FORCE_MAX_M}", 4**inst.m
        )
    n = 2**inst.m
    sys = inst.system
    rows = [[None] * n for _ in range(n)]

    def search(i):
        # cell i in row-major order; its left and lower neighbours are set
        if i == n * n:
            return True
        y, x = divmod(i, n)
        for tile in (inst.prefix[x],) if y == 0 and x < inst.m else sys.tiles:
            if x and (rows[y][x - 1], tile) not in sys.hcompat:
                continue
            if y and (rows[y - 1][x], tile) not in sys.vcompat:
                continue
            rows[y][x] = tile
            if search(i + 1):
                return True
        return False

    return rows if search(0) else None


def tiling_signature(m):
    rels = [(f"H{k}", 2) for k in range(1, m + 1)]
    rels += [(f"V{k}", 2) for k in range(1, m + 1)]
    rels += [(f"P{k}", 1) for k in range(1, m + 1)]
    return Signature(tuple(rels))


def _piece(first, last, ell, mode):
    """Bit relation in factor ell (1-based) of the successor piece over bits first..last.

    H_k takes bits k..m of the horizontal block, V_k bits m+k..2m of the
    vertical one.  In exact mode bit first goes 0 -> 1 and the later bits
    1 -> 0; paper-literal mode lets every bit of the block flip either way.
    """
    if mode == "paper-literal":
        return DIFF if first <= ell <= last else ID
    if ell == first:
        return S01
    if first < ell <= last:
        return S10
    return ID


def encode_tiling_php(inst, mode="exact"):
    """The 2m-factor PHP instance whose product maps to the target iff a tiling exists.

    Factor ell holds bit ell of the horizontal coordinate (ell <= m) or bit
    ell-m of the vertical coordinate, most significant first.  P_k pins grid
    position (k-1, 0) to the k-th prefix tile.  More elements and tuples in
    the factors and the target together than the size guard raise
    GuardExceededError before any structure is built.
    """
    if mode not in MODES:
        raise InvalidStructureError(f"mode must be one of {MODES}")
    m = inst.m
    sys = inst.system
    # H_k and V_k each flip m - k + 1 bits, so m(m + 1) of the 4m^2 pieces
    # (2m per factor) flip a bit and the others are the identity
    flips = m * (m + 1)
    flip = len(DIFF) if mode == "paper-literal" else len(S01)
    size = 4 * m + len(sys.tiles)
    tuples = flip * flips + len(ID) * (4 * m * m - flips) + 2 * m * m
    tuples += m * (len(sys.hcompat) + len(sys.vcompat) + 1)
    check_guard(size + tuples, f"tiling encoding would have {size} elements and {tuples} tuples")
    sig = tiling_signature(m)
    factors = []
    for ell in range(1, 2 * m + 1):
        interp = {}
        for k in range(1, m + 1):
            interp[f"H{k}"] = _piece(k, m, ell, mode)
            interp[f"V{k}"] = _piece(m + k, 2 * m, ell, mode)
            interp[f"P{k}"] = ((str(((k - 1) >> (m - ell)) & 1) if ell <= m else "0",),)
        factors.append(Structure(sig, ("0", "1"), interp))
    target_interp = {}
    for k in range(1, m + 1):
        target_interp[f"H{k}"] = tuple(sys.hcompat)
        target_interp[f"V{k}"] = tuple(sys.vcompat)
        target_interp[f"P{k}"] = ((inst.prefix[k - 1],),)
    target = Structure(sig, sys.tiles, target_interp)
    return PhpInstance(tuple(factors), target)


def decode_hom_to_tiling(hom, inst):
    """Read the witness decide_php found for the exact encoding, y's factors first, as rows[y][x].

    With the m factors of y's bits before those of x, cell (x, y) is product
    rank y * 2^m + x, so row y is the images of ranks y * 2^m .. (y + 1) *
    2^m - 1 in the search's value list; any other map raises
    CertificateError.  The map is not checked here, so check it against the
    encoded product first (Homomorphism.validate).
    """
    m = inst.m
    ranks = hom.mapping
    if not isinstance(ranks, _RankMap) or len(ranks.images) != 4**m:
        raise CertificateError(f"the map is not a search's witness on the 4^{m} grid cells")
    tiles, images = ranks.target.domain, ranks.images
    return [list(map(tiles.__getitem__, images[y << m : (y + 1) << m])) for y in range(1 << m)]


# --- JSON file format -------------------------------------------------------
#
# {"tiles": ["t","u"], "hcompat": [["t","u"]], "vcompat": [["t","t"]]}


def tile_system_from_dict(data):
    if not isinstance(data, dict) or not {"tiles", "hcompat", "vcompat"} <= set(data):
        raise InvalidStructureError(
            "tile system file needs 'tiles', 'hcompat', and 'vcompat'"
        )
    return TileSystem(
        string_list(data["tiles"], "'tiles'"),
        frozenset(string_rows(data["hcompat"], "'hcompat'")),
        frozenset(string_rows(data["vcompat"], "'vcompat'")),
    )


def load_tile_system(path):
    return tile_system_from_dict(load_json(path))
