"""Built-in corpus of algebra specs: Borel algebras over F_2/F_3/F_5, a few
non-Borel pattern algebras, and diagonal (semisimple) algebras.

Specs are shipped as JSON files; b3_f5 has unit group order 8000 and sits
behind the default order cap, so it is not part of DEFAULT_CORPUS.

This module owns the one process-wide cache: one Algebra per spec, keyed by
the spec's canonical JSON text (spec_algebra). Everything computed from an
algebra is cached on the algebra itself, so repeated commands on a spec in
one process share its groups, classes and tables.
"""

import json
from importlib import resources

from .algebra import Algebra, algebra_from_spec
from .errors import SpecError

DEFAULT_CORPUS = (
    "b2_f2", "b2_f3", "b2_f5",
    "b3_f2", "b3_f3", "b4_f2",
    "pattern3_f3", "pattern3_f2", "pattern4_f2",
    "diag2_f2", "diag2_f3", "diag1_f5",
)

GATED_CORPUS = ("b3_f5",)

ALL_CORPUS = DEFAULT_CORPUS + GATED_CORPUS


def corpus_spec(name: str) -> dict:
    if name not in ALL_CORPUS:
        raise SpecError(f"unknown corpus spec '{name}'")
    path = resources.files("brw").joinpath(f"corpus_specs/{name}.json")
    return json.loads(path.read_text("utf-8"))


_algebras = {}


def spec_algebra(spec: dict) -> Algebra:
    """The Algebra of a spec, built once per process."""
    key = json.dumps(spec, sort_keys=True)
    if key not in _algebras:
        _algebras[key] = algebra_from_spec(spec)
    return _algebras[key]


def corpus_algebra(name: str) -> Algebra:
    return spec_algebra(corpus_spec(name))


def read_json(path: str, what: str):
    """The JSON value in a file; SpecError if it cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise SpecError(f"cannot read {what} '{path}': {exc}")
    except ValueError as exc:   # undecodable bytes or malformed JSON
        raise SpecError(f"{what} '{path}' is not valid JSON: {exc}")


def load_spec(path_or_name: str) -> tuple[str, dict]:
    """Resolve a CLI spec argument: a corpus name or a JSON file path."""
    if path_or_name in ALL_CORPUS:
        return path_or_name, corpus_spec(path_or_name)
    spec = read_json(path_or_name, "spec")
    name = path_or_name.rsplit("/", 1)[-1]
    if name.endswith(".json"):
        name = name[:-5]
    return name, spec
