"""The three workloads: seeded inputs, the timed call, the exact gate.

Every workload is one *cycle* of distinct items drawn from item
classes (family, d, count, how many of them reducible).  Setup draws
the cycle from ``random.Random(f"{seed}:{workload}")`` through
``daha.sampling`` and shuffles it, so each class is spread over the
whole cycle; the timed phase repeats the cycle.

``run`` is the call a user would make and is the only timed part.
``check`` compares its output exactly with what setup expects and
runs outside the timed region.  ``dh`` is the namespace of freshly
imported ``daha`` modules (see ``bench.load_daha``); workloads reach
the package only through it, so a traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

EVEN, ODD = "even", "odd"


@dataclass(frozen=True)
class ItemClass:
    family: str
    d: int
    count: int
    reducible: int = 0

    @property
    def label(self) -> str:
        return f"{self.family} d={self.d}"


@dataclass
class Item:
    id: int
    cls: ItemClass
    params: object
    expected: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)


def _irreducible(dh, rng, family, d):
    """A sampled rational quadruple that meets its family's criterion."""
    crit = dh.analysis.criterion_E if family == EVEN else dh.analysis.criterion_O
    for _ in range(200):
        p = dh.sampling.sample_params(rng, family, d)
        if crit(p):
            return p
    raise RuntimeError(f"no irreducible {family} quadruple at d={d}")


def _make(dh, p):
    return dh.modrep.make_E(p) if p.parity == EVEN else dh.modrep.make_O(p)


class Workload:
    name = ""
    classes: tuple  # the item classes of one cycle
    LADDER_INDEX = None  # symbolic only: highest basis index checked

    def __init__(self, classes: tuple | None = None):
        if classes is not None:
            self.classes = classes

    def generate(self, dh, seed, workdir):
        """The cycle: every class's items, in a seeded random order."""
        rng = random.Random(f"{seed}:{self.name}")
        cycle = []
        for cls in self.classes:
            offset = rng.randrange(4)
            for j in range(cls.count):
                cycle.append(self.make_item(dh, rng, len(cycle), cls, j, offset, workdir))
        rng.shuffle(cycle)
        return cycle

    def make_item(self, dh, rng, item_id, cls, j, offset, workdir) -> Item:
        raise NotImplementedError

    def run(self, dh, item):
        raise NotImplementedError

    def check(self, dh, item, output) -> bool:
        raise NotImplementedError

    def digest(self, dh, item, output) -> str:
        return repr(output)


class Oracle(Workload):
    """Criterion against Burnside oracle at q = 2 (mirrors c3, ``daha sweep``)."""

    name = "oracle"
    classes = (
        ItemClass(ODD, 0, 20),
        ItemClass(EVEN, 1, 20, reducible=4),
        ItemClass(ODD, 2, 25, reducible=5),
        ItemClass(EVEN, 3, 21, reducible=6),
        ItemClass(ODD, 4, 8, reducible=1),
        ItemClass(EVEN, 5, 3, reducible=2),
        ItemClass(ODD, 6, 2),
        ItemClass(EVEN, 7, 1),
    )

    def make_item(self, dh, rng, item_id, cls, j, offset, workdir):
        if j < cls.reducible:
            adversarial = (
                dh.sampling.adversarial_even if cls.family == EVEN else dh.sampling.adversarial_odd
            )
            p = adversarial(rng, cls.d)
        else:
            p = _irreducible(dh, rng, cls.family, cls.d)
        return Item(item_id, cls, p, expected={"irreducible": j >= cls.reducible})

    def run(self, dh, item):
        p = item.params
        analysis = dh.analysis
        module = _make(dh, p)
        crit = analysis.criterion_E(p) if p.parity == EVEN else analysis.criterion_O(p)
        return crit, analysis.burnside_irreducible(module)

    def check(self, dh, item, output):
        crit, oracle = output
        return crit == oracle == item.expected["irreducible"]


class ClassifyCli(Workload):
    """In-process ``daha classify`` on module files (mirrors c6)."""

    name = "classify_cli"
    classes = (
        ItemClass(ODD, 0, 8),
        ItemClass(EVEN, 1, 8),
        ItemClass(ODD, 2, 10),
        ItemClass(EVEN, 3, 10),
        ItemClass(ODD, 4, 4),
        ItemClass(EVEN, 5, 4),
    )

    def make_item(self, dh, rng, item_id, cls, j, offset, workdir):
        p = _irreducible(dh, rng, cls.family, cls.d)
        if cls.family == EVEN:
            e = (offset + j) % 4
            module = dh.analysis.twist(dh.modrep.make_E(p), e)
            expected = {"twist": e, "params": dh.params.canonical_orbit_rep(p).to_json()}
        else:
            module = dh.modrep.make_O(p)
            expected = {"twist": 0, "params": p.to_json()}
        src = os.path.join(workdir, f"in-{item_id}.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(module.to_json(), fh)
        payload = {"in": src, "out": os.path.join(workdir, f"out-{item_id}.json"), "module": module}
        return Item(item_id, cls, p, expected=expected, payload=payload)

    def run(self, dh, item):
        return dh.cli.main(["classify", "--in", item.payload["in"], "--out", item.payload["out"]])

    @staticmethod
    def _written(item) -> bytes:
        with open(item.payload["out"], "rb") as fh:
            return fh.read()

    def _reference(self, dh, item):
        """The module the certificate must map onto, built once per item."""
        ref = item.payload.get("reference")
        if ref is None:
            expected = item.expected
            p = dh.params.ParamQuadruple.from_json(expected["params"])
            if p.parity == EVEN:
                ref = dh.analysis.twist(dh.modrep.make_E(p), expected["twist"])
            else:
                ref = dh.modrep.make_O(p)
            item.payload["reference"] = ref
        return ref

    def check(self, dh, item, output):
        if output != 0:
            return False
        result = json.loads(self._written(item))
        if result.get("verdict") != "classified":
            return False
        if result["twist"] != item.expected["twist"] or result["params"] != item.expected["params"]:
            return False
        cert = dh.linalg.Matrix.from_json(result["certificate"])
        return bool(dh.linalg.det(cert)) and dh.analysis.is_intertwiner(
            cert, item.payload["module"], self._reference(dh, item)
        )

    def digest(self, dh, item, output):
        return f"{output}:{hashlib.sha256(self._written(item)).hexdigest()}"


class Symbolic(Workload):
    """Formal-q relations, characters and infinite module (mirrors c8)."""

    name = "symbolic"
    LADDER_INDEX = 2
    classes = (
        ItemClass(ODD, 0, 5),
        ItemClass(EVEN, 1, 5),
        ItemClass(ODD, 2, 15),
        ItemClass(EVEN, 3, 15),
    )

    def make_item(self, dh, rng, item_id, cls, j, offset, workdir):
        p = dh.sampling.sample_params(rng, cls.family, cls.d, field=dh.scalar.QQ_Q)
        if cls.family == EVEN:
            one = p.q ** 0
            fingerprint = (dh.scalar.scalar_pow(p.q, -p.d - 1), one, one, one)
        else:
            fingerprint = p.k
        expected = {"character": tuple(k + 1 / k for k in p.k), "fingerprint": fingerprint}
        return Item(item_id, cls, p, expected=expected)

    def run(self, dh, item):
        p = item.params
        modrep = dh.modrep
        module = _make(dh, p)
        relations = modrep.verify_relations(module).ok
        character = modrep.central_character(module)
        fingerprint = dh.analysis.det_fingerprint(module)
        top = self.LADDER_INDEX
        ladder = modrep.verma_ladder_check(p, top).ok
        one = p.q ** 0
        laurent = True
        for i in range(top + 1):
            image = modrep.verma_basis_image(i, p)
            unit = modrep.SparseVec.unit(i, one)
            for gen in range(4):
                left = modrep.poly_apply(gen, image, p)
                right = modrep.sparse_to_poly(modrep.verma_apply(gen, unit, p), p)
                laurent = laurent and left == right
        return relations, character, fingerprint, ladder, laurent

    def check(self, dh, item, output):
        relations, character, fingerprint, ladder, laurent = output
        return (
            relations
            and ladder
            and laurent
            and character == item.expected["character"]
            and fingerprint == item.expected["fingerprint"]
        )

    def digest(self, dh, item, output):
        relations, character, fingerprint, ladder, laurent = output
        text = dh.scalar.scalar_to_str
        return "|".join(
            [str(relations), ",".join(map(text, character)), ",".join(map(text, fingerprint)),
             str(ladder), str(laurent)]
        )


WORKLOADS = {w.name: w for w in (Oracle, ClassifyCli, Symbolic)}
