"""Offline templates and their exact specializations, one line per seed.

    PYTHONPATH=src python tools/templates.py --problem five_point --seeds 0..49

For each seed in the inclusive range, the template is
``build_template(problem, seed)`` and the specializations are
``specialize(problem, seed)``, the two Z_p matrices it reads.  Each line
reads

    seed k i,j template stack_0 det_0 stack_1 det_1

where ``k`` and ``i,j`` are the template's determinant degree and deletion
pair in clear, ``template`` is the sha256 of ``template_to_json``, and
``stack_s`` and ``det_s`` are the sha256 of specialization s's residue
stack (its shape and entries) and of its determinant's coefficients, both
as JSON.  A seed whose build raises ``TemplateError`` prints ``error`` in
place of the rest.  Run it against two checkouts
(``PYTHONPATH=<checkout>/src``) and diff the outputs to list every seed
whose offline stage changed; across a change of the template format only
the ``template`` column moves, and the decisions stay readable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re

from resultant_solve.offline import (
    TemplateError,
    build_template,
    specialize,
    template_to_json,
)
from resultant_solve.problems import get_problem


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def template_line(problem, seed: int) -> str:
    try:
        template = build_template(problem, seed)
    except TemplateError:
        return f"{seed} error"
    i, j = template.deletion_pair
    fields = [str(seed), str(template.k), f"{i},{j}", _sha256(template_to_json(template))]
    for spec in specialize(problem, seed):
        fields.append(_sha256(json.dumps([spec.stack.shape, spec.stack.tolist()])))
        fields.append(_sha256(json.dumps(spec.det)))
    return " ".join(fields)


def _seed_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--problem", required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True, help="inclusive, A..B")
    args = parser.parse_args(argv)
    problem = get_problem(args.problem)
    for seed in args.seeds:
        print(template_line(problem, seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
