"""Source-level rules for the library modules."""

import ast
from collections import Counter
from itertools import pairwise
from pathlib import Path
from types import ModuleType

import hardcore_lab
from hardcore_lab import cli, repro

MODULES = sorted(Path(hardcore_lab.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(hardcore_lab.__file__).parents[2] / "demos").glob("*.py"))
# Each library module and demo is parsed once, and every rule reads these.
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES + DEMOS}


def _tree(name: str) -> ast.Module:
    """The parsed library module called name."""
    return TREES[Path(hardcore_lab.__file__).parent / name]


def test_library_has_no_assert_statements():
    # A cross-check must survive `python -O`, which strips asserts: the
    # library raises instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(TREES[path])
        if isinstance(node, ast.Assert)
    ]
    assert len(MODULES) > 10
    assert found == []


def _names_used(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_helper_has_a_caller():
    # A single-underscore function, method or class must be referenced
    # somewhere in the library outside its own definition: helpers nobody
    # calls are deleted, not kept.
    used = Counter(name for path in MODULES for name in _names_used(TREES[path]))
    defined = [
        (path.name, node)
        for path in MODULES
        for node in ast.walk(TREES[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in defined
        if used[node.name] == Counter(_names_used(node))[node.name]
    ]
    assert len(defined) > 20
    assert unused == []


def test_every_public_function_is_exported_or_used():
    # A public module-level function is exported from the package, or
    # something in the library, the command line or the demos references it
    # outside its own definition.  One that only tests call is deleted.
    exported = set(_names_used(TREES[Path(hardcore_lab.__file__)]))
    used = Counter(name for tree in TREES.values() for name in _names_used(tree))
    public = [
        (path.name, node)
        for path in MODULES
        for node in TREES[path].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in public
        if node.name not in exported and used[node.name] == Counter(_names_used(node))[node.name]
    ]
    assert len(DEMOS) > 3 and len(public) > 50
    assert unused == []


def _is_convolution_step(node) -> bool:
    """out[...] += a * b"""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Mult))


def _convolutions(tree):
    """Names of the functions that convolve coefficient lists: a convolution
    step inside two nested loops."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and any(
                _is_convolution_step(node)
                for outer in ast.walk(fn) if isinstance(outer, ast.For)
                for inner in ast.walk(outer) if inner is not outer and isinstance(inner, ast.For)
                for node in ast.walk(inner)):
            yield fn.name


def test_one_integer_product_kernel():
    # Every polynomial product goes through polynomials._int_mul: no other
    # function convolves coefficient lists, and the engine has no product
    # of its own.
    found = {f"{path.name}:{name}" for path in MODULES
             for name in _convolutions(TREES[path])}
    assert found == {"polynomials.py:_int_mul"}
    assert "_mul" not in {n.name for n in ast.walk(_tree("hardcore.py"))
                          if isinstance(n, ast.FunctionDef)}


# The special methods each library class defines, by def or by assignment.
# Poly, MultiPoly and RationalInterval are the arithmetic types: a truncated
# series is a MultiPoly in the fugacity, so no second polynomial container
# defines __mul__ again, and each reflected or extra operator is here because
# the lab applies it.  RatFunc is a value type: E and V are compared for
# identity and evaluated, never combined, so it defines no arithmetic.  Its
# __hash__ has no caller in the lab; it stays because a class that defines
# __eq__ and not __hash__ is unhashable, and a value type hashes as it
# compares.
_SPECIAL_METHODS = {
    "Poly": {"__init__", "__eq__", "__neg__", "__add__", "__sub__", "__mul__", "__rmul__",
             "__pow__"},
    "RatFunc": {"__init__", "__eq__", "__hash__"},
    "MultiPoly": {"__init__", "__eq__", "__neg__", "__add__", "__sub__", "__mul__", "__rmul__",
                  "__pow__", "__str__"},
    "RationalInterval": {"__post_init__", "__neg__", "__add__", "__radd__", "__sub__",
                         "__mul__"},
    "Graph": {"__post_init__"},
    "HardCoreProfile": {"__init__"},
    "SplitMix64": {"__init__"},
}


def test_every_special_method_is_pinned():
    # A special method nobody applies is deleted, not kept: the method rule
    # below skips dunders, so this pin is what stops them growing back.
    # __slots__ is a data attribute, not a method.
    found = {}
    for path in MODULES:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)} | {
                    t.id for item in node.body if isinstance(item, ast.Assign)
                    for t in item.targets if isinstance(t, ast.Name)}
                special = {name for name in names if name.startswith("__")
                           and name.endswith("__") and name != "__slots__"}
                if special:
                    found[node.name] = special
    assert found == _SPECIAL_METHODS


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node, methods as
    Class.method and nested functions as outer.inner."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def test_only_the_profile_owns_an_engine_memo():
    # A graph's engine memo belongs to its HardCoreProfile: only the
    # recursion itself and HardCoreProfile._packed call _z_packed, so
    # every entrance to the engine (independence_polynomial and
    # subset_polynomial included) reads a profile.  No module calls
    # subset_polynomial either: it builds a fresh profile, so each such call
    # would build a second memo for data a profile already holds.
    engine = {"subset_polynomial", "_z_packed"}
    callers = {
        f"{path.name}:{name}"
        for path in MODULES
        for name, fn in _functions(TREES[path])
        if any(isinstance(node, ast.Call) and engine & set(_names_used(node.func))
               for node in ast.walk(fn))
    }
    assert callers == {"hardcore.py:_z_packed", "hardcore.py:HardCoreProfile._packed"}


def test_engine_rows_come_from_the_path_product():
    # Every engine leaf reads the two-state path product, so hardcore.py has
    # no binomial-coefficient row: comb is called only for the chunk bound
    # of variance_via_marginals' packed pair sum.
    callers = {name for name, fn in _functions(_tree("hardcore.py"))
               if any(isinstance(node, ast.Call) and "comb" in _names_used(node.func)
                      for node in ast.walk(fn))}
    assert callers == {"variance_via_marginals"}


def test_only_the_engine_check_runs_the_oracle():
    # brute_force_polynomial is the deliberately naive oracle the recursion
    # is checked against, so no production path runs it: besides its
    # definition, only the package export and repro.item_engine_oracle
    # refer to it.
    def scope(stmt):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return "import"
        return stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"

    refs = {
        f"{path.name}:{scope(stmt)}"
        for path in MODULES
        for stmt in TREES[path].body
        if "brute_force_polynomial" in _names_used(stmt)
    }
    assert callable(hardcore_lab.hardcore.brute_force_polynomial)
    assert refs == {"__init__.py:import", "repro.py:import", "repro.py:item_engine_oracle"}


def _defaults(args: ast.arguments):
    positional = args.posonlyargs + args.args
    padded = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return list(zip(positional, padded)) + list(zip(args.kwonlyargs, args.kw_defaults))


def test_per_graph_quantities_come_from_the_profile():
    # A graph's Z, E and V are read from its HardCoreProfile: the checks and
    # the command line never compute Z themselves, no function takes a
    # precomputed Z through an optional z= parameter, and the one
    # Graph-or-profile coercion lives next to the profile.
    functions = [(path.name, fn) for path in MODULES for fn in ast.walk(TREES[path])
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    engine_calls = [
        f"{name}:{node.lineno}"
        for name in ("bounds.py", "cli.py")
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Call) and "independence_polynomial" in _names_used(node.func)
    ]
    optional_z = [
        f"{name}:{fn.lineno} {fn.name}"
        for name, fn in functions
        for arg, default in _defaults(fn.args)
        if arg.arg == "z" and isinstance(default, ast.Constant) and default.value is None
    ]
    coercions = {
        f"{name}:{fn.name}"
        for name, fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and "HardCoreProfile" in _names_used(node.args[1])
    }
    assert engine_calls == []
    assert optional_z == []
    assert coercions == {"hardcore.py:_profile_of"}


def test_every_per_graph_check_opens_with_the_input_contract():
    # bounds._inputs states once what a per-graph check accepts (lam > 0,
    # then a graph or profile with a vertex): it alone calls _profile_of in
    # bounds.py, and every public function there whose first parameter is a
    # graph or its profile opens with a call to it, after its docstring.
    tree = _tree("bounds.py")
    coercers = {name for name, fn in _functions(tree)
                if any(isinstance(node, ast.Call) and "_profile_of" in _names_used(node.func)
                       for node in ast.walk(fn))}
    checks = [fn for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.args.args and fn.args.args[0].annotation is not None
              and ast.unparse(fn.args.args[0].annotation) == "Graph | HardCoreProfile"]
    openers = [fn.body[ast.get_docstring(fn) is not None] for fn in checks]
    unchecked = [fn.name for fn, first in zip(checks, openers)
                 if not (isinstance(first, ast.Assign) and isinstance(first.value, ast.Call)
                         and "_inputs" in _names_used(first.value.func))]
    assert coercers == {"_inputs"}
    assert len(checks) == 9
    assert unchecked == []


def _own_nodes(fn):
    """The nodes of fn's body outside the functions and lambdas nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_bounds_reach_lambert_w_through_per_call_bisections():
    # The triangle-free checks resume one Lambert W bisection per argument,
    # and one series for log(1 + lam), across their refinement rounds, and
    # never beyond one check call.  In bounds.py only _tf_weights(lam), which
    # takes nothing else and is not memoised, makes the series and starts
    # the bisections, and it is called once in each check's own body: not in
    # a nested function, a default or at module level, so the weights object
    # that owns them lives for exactly one call.  The combined chain makes
    # its own series the same way: once per argument, in its own body.
    tree = _tree("bounds.py")
    functions = dict(_functions(tree))

    def calls(name, nodes):
        return [node for node in nodes
                if isinstance(node, ast.Call) and name in _names_used(node.func)]

    assert "lambert_w_interval" not in set(_names_used(tree))
    weights = functions["_tf_weights"]
    inside = set(ast.walk(weights))
    chain = calls("log_series", _own_nodes(functions["check_combined_chain"]))
    arguments = [ast.unparse(call.args[0]) for call in chain]
    assert len(arguments) == len(set(arguments)) == 5
    for name, allowed in (("log_series", chain), ("lambert_w_bisection", [])):
        found = set(calls(name, ast.walk(tree))) - set(allowed)
        assert found and found <= inside, name
    assert [a.arg for a in weights.args.args] == ["lam"] and weights.decorator_list == []
    checks = ("check_occupancy_tf", "check_tf_weighted_marginals")
    own = [calls("_tf_weights", _own_nodes(functions[check])) for check in checks]
    assert [len(found) for found in own] == [1, 1]
    assert set(calls("_tf_weights", ast.walk(tree))) == {call for found in own for call in found}


def test_bounds_import_no_one_shot_enclosure():
    # The checks reach every logarithm through log_series and W through
    # lambert_w_bisection: a one-shot wrapper, which starts a fresh series or
    # bisection per call, is not imported into bounds.py.
    imported = [alias.name for node in ast.walk(_tree("bounds.py"))
                if isinstance(node, ast.ImportFrom) and node.module == "intervals"
                for alias in node.names]
    assert sorted(imported) == ["RationalInterval", "_lift", "_positive_tol",
                                "lambert_w_bisection", "log_series"]


# Defaulted parameters kept without a caller: main(argv) is the tests' entry
# seam, and the density and size of the two random generators are set by
# the tests that use them as instruments.
_UNSET_OPTIONS = {
    "cli.py:main(argv)",
    "corpus.py:random_graph(p_numer)", "corpus.py:random_graph(p_denom)",
    "orderings.py:random_generating_pair(max_degree)",
    "orderings.py:random_generating_pair(max_coeff)",
}


def _passes(call, name, arg, index) -> bool:
    """Whether call, to something called name, passes arg by keyword, or by
    position at index (None for keyword-only)."""
    func = call.func
    callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return callee == name and (
        any(k.arg in (arg, None) for k in call.keywords)
        or index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args)))


def test_every_option_has_a_caller():
    # Every defaulted parameter of a library function or method is passed,
    # by keyword or by position, in some call in the library, the command
    # line or the demos: a setting no caller sets is a constant.  A method
    # is matched by name (a class's __init__ by the class name), with self
    # or cls not counted among the positions.  cmd_bound calls each check of
    # cli.BOUNDS with one positional argument per option its entry reads.
    calls = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    calls += [ast.Call(ast.Name(check.__name__), [ast.Constant(None)] * len(reads), [])
              for check, reads in cli.BOUNDS.values()]
    unset, options = set(), 0
    for path in MODULES:
        classes = {node.name for node in ast.walk(TREES[path]) if isinstance(node, ast.ClassDef)}
        for qualified, fn in _functions(TREES[path]):
            cls = qualified.split(".")[-2] if "." in qualified else None
            bound = cls in classes
            name = cls if bound and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            for arg, default in _defaults(fn.args):
                if default is None:
                    continue
                options += 1
                index = positional.index(arg) - bound if arg in positional else None
                if not any(_passes(call, name, arg.arg, index) for call in calls):
                    unset.add(f"{path.name}:{name}({arg.arg})")
    assert options > 20
    assert unset == _UNSET_OPTIONS


# Public methods kept without a reference in the library or the demos: three
# test instruments, and the argparse hook that argparse itself calls.
_UNREFERENCED_METHODS = {
    "Graph.induced", "RationalInterval.contains", "SplitMix64.random", "_Parser.error",
}


def _attributes_used(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr


def test_every_public_method_is_referenced():
    # A public method of a library class is referenced as an attribute,
    # x.name, somewhere in the library, the command line or the demos outside
    # its own definition: a method only tests reach is deleted, not kept.  A
    # bare name is a local or a module-level function, never a method, so it
    # does not count.
    used = Counter(name for tree in TREES.values() for name in _attributes_used(tree))
    methods = [
        (cls.name, item)
        for path in MODULES
        for cls in ast.walk(TREES[path]) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]
    unreferenced = {
        f"{cls}.{item.name}"
        for cls, item in methods
        if used[item.name] == Counter(_attributes_used(item))[item.name]
    }
    assert len(methods) > 40
    assert unreferenced == _UNREFERENCED_METHODS


def _is_string_constant(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_string_constant, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_parameter_picks_a_route_by_string():
    # A library function does not compare one of its own parameters with a
    # string constant, or a collection of them, to pick a route: two
    # algorithms behind one mode string are two functions, and a caller that
    # knows another module's vocabulary reads that module's constant.
    found = []
    for path in MODULES:
        for name, fn in _functions(TREES[path]):
            params = {arg.arg for arg, _ in _defaults(fn.args)}
            found += [
                f"{path.name}:{node.lineno} {name}"
                for node in ast.walk(fn) if isinstance(node, ast.Compare)
                for pair in pairwise([node.left, *node.comparators])
                if any(isinstance(side, ast.Name) and side.id in params for side in pair)
                and any(_is_string_constant(side) for side in pair)
            ]
    assert found == []


def test_only_the_verdict_module_reads_the_print_limit():
    # One module decides what is too long to print: only verdict.py reads
    # Python's integer-to-string digit limit, and a module that would spend
    # its time on a value too long to print asks verdict._refuse_digits.
    readers = {
        path.name
        for path in MODULES
        if "get_int_max_str_digits" in _names_used(TREES[path])
    }
    assert readers == {"verdict.py"}


def test_no_module_reads_the_platform_byte_order():
    # Packed words are read through explicit little-endian struct layouts,
    # the same on every platform: no library module reads sys.byteorder or
    # imports array, whose words take the platform's order and size.
    found = [
        f"{path.name} {name}"
        for path in MODULES
        for name in set(_names_used(TREES[path])) & {"byteorder", "array"}
    ]
    assert found == []


def test_each_packed_layout_has_one_owner():
    # Two packed layouts, each named in one module: polynomials picks every
    # Kronecker width (_pack, _unpack), and hardcore owns the engine's
    # x = 2^64 (_digits, _DIGIT_BITS), where the neighborhood table packs too.
    used = {path.name: set(_names_used(tree)) for path, tree in TREES.items()}
    owners = {name: {module for module, names in used.items() if name in names}
              for name in ("_pack", "_unpack", "_digits", "_DIGIT_BITS")}
    assert owners == {"_pack": {"polynomials.py"}, "_unpack": {"polynomials.py"},
                      "_digits": {"hardcore.py"}, "_DIGIT_BITS": {"hardcore.py"}}


def test_each_repro_id_is_stated_once():
    # A repro item's id is its REGISTRY key and nowhere else in repro.py:
    # the item returns (status, payload), and _run_item alone builds the
    # ReproItem record, for a result and for a caught exception alike.
    tree = _tree("repro.py")
    strings = Counter(node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str))
    builders = [name for name, fn in _functions(tree)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and "ReproItem" in _names_used(node.func)]
    module_calls = [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and "ReproItem" in _names_used(node.func)]
    registry = repro.REGISTRY
    assert len(registry) > 20
    assert {item_id: strings[item_id] for item_id in registry if strings[item_id] != 1} == {}
    assert builders == ["_run_item"] and len(module_calls) == 1


BENCH = Path(hardcore_lab.__file__).parents[2] / "verdict_bench"
# The files through which the benchmark reaches the library.
BENCH_FILES = ("tracing.py", "workloads.py", "reference.py", "worker.py",
               "tests/test_verdict_bench.py")


def _bench_reads(tree: ast.Module) -> set[str]:
    """Every hardcore_lab attribute a benchmark file reads, as a dotted path
    from the package: chains on the worker's library namespace (`lib`,
    `LIB`, `self.lib`), on a name or instance attribute bound to one of
    those chains, and on an imported hardcore_lab; the TRACED table; and
    `from hardcore_lab... import` names.  A local name bound to anything but
    a module is recorded where it is bound, not followed."""
    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            return [node.id, *reversed(parts)]
        return None

    # Names, and instance attributes as "self.name", bound to a package path.
    aliases = {"lib": "hardcore_lab", "LIB": "hardcore_lab", "self.lib": "hardcore_lab",
               "hardcore_lab": "hardcore_lab"}

    def chain(node):
        """The package path node reads, or None."""
        parts = dotted(node) or [""]
        if parts[0] == "self" and len(parts) > 1:
            parts = ["self." + parts[1], *parts[2:]]
        base = aliases.get(parts[0])
        return ".".join([base, *parts[1:]]) if base and len(parts) > 1 else None

    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
            if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(node.targets[0].elts, node.value.elts))
            for target, value in pairs:
                path, name = chain(value), dotted(target)
                if path is None or name is None:
                    continue
                if name[0] == "self" and len(name) == 2:
                    aliases["self." + name[1]] = path
                elif len(name) == 1 and path.count(".") == 1:  # a library module
                    aliases[name[0]] = path
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED"
                                                for t in node.targets):
            reads |= {f"hardcore_lab.{module}.{attr}"
                      for module, attr, _ in ast.literal_eval(node.value)}
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hardcore_lab"):
            reads |= {f"{node.module}.{alias.name}" for alias in node.names}
    outer = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in outer:
            path = chain(node)
            if path is not None:
                reads.add(path)
    return reads


def _resolves(path: str) -> bool:
    obj = hardcore_lab
    for part in path.split(".")[1:]:
        try:
            obj = getattr(obj, part)
        except AttributeError:
            return False
    return True


def test_every_name_the_benchmark_reads_resolves():
    # Tier-1 does not run verdict_bench/, so a library name it reaches could
    # go with tier-1 green and break every workload or --trace run.  Each
    # one must resolve, and the worker's namespace must hold each module the
    # benchmark reads through it.  bounds.lambert_w_interval is the one
    # exception: a benchmark test still expects bounds to bind it, which the
    # Lambert W rules above forbid (ROADMAP, known defects).
    worker = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    namespace = next(ast.literal_eval(node.value) for node in worker.body
                     if isinstance(node, ast.Assign)
                     and ast.unparse(node.targets[0]) == "LIBRARY_MODULES")
    reads = set()
    for name in BENCH_FILES:
        reads |= _bench_reads(ast.parse((BENCH / name).read_text(encoding="utf-8")))
    modules = {path.split(".")[1] for path in reads
               if isinstance(getattr(hardcore_lab, path.split(".")[1], None), ModuleType)}
    missing = {path for path in reads if not _resolves(path)}
    assert {"hardcore_lab.hardcore.profile", "hardcore_lab.polynomials.Poly.evaluate",
            "hardcore_lab.roots.nonneg_on_halfline", "hardcore_lab.roots.isolate_positive_roots",
            "hardcore_lab.orderings.implication_web_check"} <= reads
    assert len(reads) > 40 and len(modules) == 10
    assert modules <= set(namespace)
    assert missing == {"hardcore_lab.bounds.lambert_w_interval"}
