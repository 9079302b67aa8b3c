"""One-call frontend: preprocess + parse raw C source.

``parse_program`` memoizes on a hash of the source (plus the
preprocessor inputs), so benchmark harnesses and test suites that parse
the same program repeatedly skip re-lexing and re-parsing.  Every call
returns a structural clone of the cached master by default
(:func:`repro.cfront.c_ast.clone`: new nodes and lists, shared
immutable types, coordinates and strings), so callers (the translation
framework's passes) mutate their units freely, while read-only
consumers can pass ``share=True`` to receive the pristine cached master
itself.
"""

import hashlib
from collections import OrderedDict

from repro.cfront.c_ast import clone
from repro.cfront.parser import parse
from repro.cfront.preprocessor import preprocess

# Headers whose contents we model internally rather than reading from disk.
ENVIRONMENT_HEADERS = {
    "stdio.h", "stdlib.h", "string.h", "math.h", "pthread.h",
    "unistd.h", "sys/time.h", "time.h", "RCCE.h",
}

_PARSE_CACHE = OrderedDict()   # key -> pristine TranslationUnit
_PARSE_CACHE_MAX = 64
_HITS = 0
_MISSES = 0


def _cache_key(source, filename, predefined, header_map):
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    try:
        predefined_key = (tuple(sorted(predefined.items()))
                          if predefined else ())
        header_key = (tuple(sorted(header_map.items()))
                      if header_map else ())
    except TypeError:
        return None  # unhashable inputs: skip the cache
    return digest, filename, predefined_key, header_key


def parse_program(source, filename="<source>", predefined=None,
                  header_map=None, share=False):
    """Preprocess and parse ``source``; returns a TranslationUnit whose
    ``includes`` records the headers the program asked for.

    Results are memoized on (source hash, filename, preprocessor
    inputs).  By default every call, hit or miss, gets its own
    structural clone of the cached unit (every node and list new,
    immutable leaves shared, see :func:`repro.cfront.c_ast.clone`);
    ``share=True`` returns the cached master directly —
    only for callers that will never mutate the AST (this also lets
    repeat runs share downstream per-unit caches, e.g. the compiled
    closures in ``repro.sim.compile``).
    """
    global _HITS, _MISSES
    if not isinstance(source, str):
        return parse_program_uncached(source, filename, predefined,
                                      header_map)
    key = _cache_key(source, filename, predefined, header_map)
    if key is None:
        return parse_program_uncached(source, filename, predefined,
                                      header_map)
    unit = _PARSE_CACHE.get(key)
    if unit is not None:
        _PARSE_CACHE.move_to_end(key)
        _HITS += 1
        return unit if share else clone(unit)
    _MISSES += 1
    unit = parse_program_uncached(source, filename, predefined,
                                  header_map)
    _PARSE_CACHE[key] = unit
    while len(_PARSE_CACHE) > _PARSE_CACHE_MAX:
        _PARSE_CACHE.popitem(last=False)
    # the master just cached is what we hand out on this miss too: a
    # non-sharing caller gets a clone so it cannot poison the cache
    return unit if share else clone(unit)


def parse_program_uncached(source, filename="<source>", predefined=None,
                           header_map=None):
    result = preprocess(source, predefined=predefined,
                        header_map=header_map, filename=filename)
    return parse(result.text, filename, includes=result.includes)


def parse_cache_clear():
    """Drop every memoized parse (tests use this for isolation)."""
    global _HITS, _MISSES
    _PARSE_CACHE.clear()
    _HITS = 0
    _MISSES = 0


def parse_cache_info():
    return {"hits": _HITS, "misses": _MISSES,
            "entries": len(_PARSE_CACHE), "max": _PARSE_CACHE_MAX}
