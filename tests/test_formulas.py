import copy
import dataclasses
import itertools
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from belieffusion import (
    FormulaSyntaxError,
    UndeclaredVariableError,
    UnknownWorldError,
    format_formula,
    generate_universe,
    models,
    parse_formula,
    satisfies,
)
from belieffusion import formulas
from belieffusion.formulas import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    _tokenize,
    models_mask,
    variables_of,
)
from helpers import (
    aliased_prop_universe,
    formula_tokens_oracle,
    generate_universe_oracle,
    models_oracle,
    parse_formula_oracle,
    random_formula,
)


def test_parse_basic_connectives():
    assert parse_formula("F & !D") == And(Var("F"), Not(Var("D")))
    assert parse_formula("A | B & C") == Or(Var("A"), And(Var("B"), Var("C")))
    assert parse_formula("A -> B -> C") == Implies(Var("A"), Implies(Var("B"), Var("C")))


def test_parse_iff_chains_left():
    assert parse_formula("A <-> B <-> C") == Iff(Iff(Var("A"), Var("B")), Var("C"))


def test_parse_constants_and_parens():
    assert parse_formula("true") == Const(True)
    assert parse_formula("!(A | false)") == Not(Or(Var("A"), Const(False)))


def test_parse_errors_carry_offsets():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("A & & B")
    assert exc.value.offset == 4
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("A @ B")
    assert exc.value.offset == 2
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(A")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("A B")


@pytest.mark.parametrize(
    "text, offset, reason",
    [
        # a bad character anywhere is reported before an earlier syntax error
        ("A B @", 4, "unexpected character '@'"),
        ("(A @", 3, "unexpected character '@'"),
        ("1A", 0, "unexpected character '1'"),
        ("A \u00e9", 2, "unexpected character '\u00e9'"),
        ("A <- B", 2, "unexpected character '<'"),
        ("(A", 2, "expected ')', found None"),
        ("A B", 2, "unexpected trailing token 'B'"),
        ("A &\t& B", 4, "expected a formula, found '&'"),
        ("  ", 2, "expected a formula, found end of input"),
    ],
)
def test_syntax_errors_name_the_first_fault_by_offset(text, offset, reason):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert (exc.value.offset, exc.value.reason, str(exc.value)) == (offset, reason, f"at offset {offset}: {reason}")


def test_one_leaf_per_name_per_parse():
    f = parse_formula("(A & B) | !(A -> true) <-> A & B & true")
    leaves = [node for node in formulas._postorder(f) if type(node) in (Var, Const)]
    assert [format_formula(leaf) for leaf in leaves] == ["A", "B", "A", "true", "A", "B", "true"]
    assert len({id(leaf) for leaf in leaves}) == 3
    # leaves are not shared between parses
    assert parse_formula("A").name == "A" and parse_formula("A") is not parse_formula("A")


def test_nodes_are_frozen_and_slotted():
    f = parse_formula("!A & (B | true)")
    for node in formulas._postorder(f):
        name = next(iter(node.__dataclass_fields__))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, Var("Z"))
        assert not hasattr(node, "__dict__")


def test_parsed_trees_survive_deepcopy_and_pickle():
    rng = random.Random(2025)
    texts = ["A", "true", "!A & (B | false) -> A <-> B"]
    texts += [format_formula(random_tree(rng, depth=5)) for _ in range(20)]
    for text in texts:
        f = parse_formula(text)
        for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g is not f and g == f and hash(g) == hash(f) and repr(g) == repr(f)
            assert format_formula(g) == text


def test_satisfies_basic():
    f = parse_formula("F & !D")
    assert satisfies({"F": True, "D": False}, f)
    assert not satisfies({"F": True, "D": True}, f)
    assert satisfies({"F": False}, parse_formula("true"))


def test_satisfies_undeclared_variable():
    with pytest.raises(UndeclaredVariableError):
        satisfies({"F": False}, parse_formula("F -> D"))


def test_generate_universe_order():
    pu = generate_universe(["F", "D"])
    assert pu.universe.worlds == ("F.D", "F.!D", "!F.D", "!F.!D")
    assert generate_universe(["X"]).universe.worlds == ("X", "!X")
    with pytest.raises(ValueError):
        generate_universe([])
    with pytest.raises(ValueError):
        generate_universe(["X", "X"])


@pytest.mark.parametrize(
    "names, bad",
    [
        (["true"], "true"),
        (["F", "false"], "false"),
        (["1x"], "1x"),
        (["a.b"], "a.b"),
        ([""], ""),
        # the name rule runs before the distinctness check
        (["true", "true"], "true"),
    ],
)
def test_generate_universe_rejects_names_no_formula_can_mention(names, bad):
    with pytest.raises(ValueError) as exc:
        generate_universe(names)
    assert str(exc.value) == f"invalid variable name {bad!r}"


def test_every_accepted_variable_parses_as_itself():
    names = ["F", "_", "x_1", "True", "FALSE", "trueish"]
    generate_universe(names)
    for name in names:
        assert parse_formula(name) == Var(name)


def test_generate_universe_matches_the_per_world_construction():
    names = ["F", "D", "x_1", "Q", "B", "A", "z", "C"]
    for k in range(1, len(names) + 1):
        assert generate_universe(names[:k]) == generate_universe_oracle(names[:k])


def test_valuation_and_rename_world_errors():
    pu = generate_universe(["F", "D"])
    assert pu.valuation("F.!D") == {"F": True, "D": False}
    with pytest.raises(UnknownWorldError, match="^unknown world 'zz'$"):
        pu.valuation("zz")
    renamed = pu.rename_world("F.D", "ok")
    assert renamed.universe.worlds == ("ok", "F.!D", "!F.D", "!F.!D")
    assert renamed.valuation("ok") == {"F": True, "D": True}
    with pytest.raises(ValueError, match="^world name 'F.!D' already in use$"):
        pu.rename_world("F.D", "F.!D")
    with pytest.raises(UnknownWorldError, match="^unknown world 'zz'$"):
        pu.rename_world("zz", "new")
    with pytest.raises(UnknownWorldError, match="^unknown world 'zz'$"):
        pu.rename_world("zz", "zz")
    # "already in use" is checked before the old name is looked up
    with pytest.raises(ValueError, match="^world name 'F.!D' already in use$"):
        pu.rename_world("zz", "F.!D")


def test_rename_world_to_its_own_name_is_the_identity():
    pu = generate_universe(["F", "D"])
    assert pu.rename_world("F.D", "F.D") == pu
    renamed = pu.rename_world("F.D", "ok")
    assert renamed.rename_world("ok", "ok") == renamed


def test_models_examples():
    pu = generate_universe(["F", "D"])
    assert models(pu, parse_formula("F")) == {"F.D", "F.!D"}
    assert models(pu, parse_formula("true")) == set(pu.universe.worlds)
    assert models(pu, parse_formula("F & !F")) == frozenset()
    with pytest.raises(UndeclaredVariableError):
        models(pu, parse_formula("Z"))


VARS = ("A", "B", "C", "D")


def formula_trees():
    atoms = st.one_of(
        st.sampled_from(VARS).map(Var),
        st.booleans().map(Const),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
        ),
        max_leaves=24,
    )


@given(formula_trees())
def test_printer_parser_round_trip(f):
    assert parse_formula(format_formula(f)) == f


def eval_oracle(f, env):
    # independent dispatch-table evaluator
    table = {
        Var: lambda n: env[n.name],
        Const: lambda n: n.value,
        Not: lambda n: not eval_oracle(n.operand, env),
        And: lambda n: eval_oracle(n.left, env) and eval_oracle(n.right, env),
        Or: lambda n: eval_oracle(n.left, env) or eval_oracle(n.right, env),
        Implies: lambda n: eval_oracle(n.right, env) if eval_oracle(n.left, env) else True,
        Iff: lambda n: eval_oracle(n.left, env) is eval_oracle(n.right, env),
    }
    return table[type(f)](f)


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(VARS))
    kind = rng.choice(["not", "and", "or", "imp", "iff"])
    if kind == "not":
        return Not(random_tree(rng, depth - 1))
    ctor = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[kind]
    return ctor(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_models_agrees_with_truth_table_enumeration():
    pu = generate_universe(list(VARS))
    valuations = {name: dict(zip(pu.variables, bits)) for name, bits in pu.valuations}
    rng = random.Random(20240817)
    for _ in range(300):
        tree = random_tree(rng, depth=6)
        parsed = parse_formula(format_formula(tree))
        expected = frozenset(
            name for name, env in valuations.items() if eval_oracle(tree, env)
        )
        assert models(pu, parsed) == expected


def test_truth_table_exhaustive_small_formulas():
    # every formula of the shape (A op B) against its explicit table
    pu = generate_universe(["A", "B"])
    ops = {
        "&": lambda a, b: a and b,
        "|": lambda a, b: a or b,
        "->": lambda a, b: (not a) or b,
        "<->": lambda a, b: a == b,
    }
    for sym, fn in ops.items():
        f = parse_formula(f"A {sym} B")
        for a, b in itertools.product([True, False], repeat=2):
            assert satisfies({"A": a, "B": b}, f) == fn(a, b)


# Characters that start tokens, half-tokens ("<", "-", ">"), Unicode and
# control whitespace, and characters no token may contain.
TOKEN_ALPHABET = "AbZ_9x1 !&|()<->\t\n\u00a0\u2003\x1c#@.\u00e9*"


def test_tokenizer_matches_the_per_token_scan():
    rng = random.Random(4111)
    samples = ["", "   ", "A", "<-", "- >", "a\u00a0&\u2003b", "\u00e9", "true->false"]
    for _ in range(2000):
        samples.append("".join(rng.choice(TOKEN_ALPHABET) for _ in range(rng.randrange(12))))
    for _ in range(300):
        text = format_formula(random_tree(rng, depth=4))
        if rng.random() < 0.5:
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + rng.choice(" \t\u00a0@<-") + text[cut:]
        samples.append(text)
    errors = 0
    for text in samples:
        try:
            expected = formula_tokens_oracle(text)
        except FormulaSyntaxError as e:
            errors += 1
            with pytest.raises(FormulaSyntaxError) as exc:
                _tokenize(text)
            assert (exc.value.offset, str(exc.value)) == (e.offset, str(e)), text
            continue
        assert _tokenize(text) == expected, text
    assert 200 < errors < len(samples) - 200


def test_models_mask_matches_per_world_evaluation_on_aliased_universes():
    rng = random.Random(4112)
    for case in range(400):
        pu = aliased_prop_universe(rng, VARS[: 2 + case % 3])
        for name, values in pu.valuations:
            assert pu.valuation(name) == dict(zip(pu.variables, values))
        f = random_formula(rng, pu.variables, 5)
        expected = models_oracle(pu, f)
        assert models(pu, f) == expected
        assert models_mask(pu, f) == pu.universe.mask(expected)


def test_undeclared_variables_are_all_named_sorted():
    pu = generate_universe(["A", "B"])
    for text in ("false & (Z | Y)", "true | Y -> Z", "A & Z & Y"):
        with pytest.raises(UndeclaredVariableError, match=r"^undeclared variable\(s\): Y, Z$"):
            models(pu, parse_formula(text))


FORMULA_TOKENS = ("A", "B", "x_1", "true", "false", "!", "&", "|", "->", "<->", "(", ")")


def random_formula_text(rng):
    """A random token string, mostly malformed, or the printed form of a
    random tree with a token dropped, repeated or inserted."""
    if rng.random() < 0.6:
        toks = [rng.choice(FORMULA_TOKENS) for _ in range(rng.randrange(12))]
    else:
        toks = format_formula(random_tree(rng, depth=4)).replace("(", "( ").replace(")", " )").split()
        if rng.random() < 0.5 and toks:
            i = rng.randrange(len(toks))
            toks[i : i + 1] = rng.choice(([], [toks[i]] * 2, [toks[i], rng.choice(FORMULA_TOKENS)]))
    return "".join(tok + rng.choice(("", " ", "  ")) for tok in toks)


def test_parser_matches_the_recursive_descent_oracle():
    rng = random.Random(7301)
    valid = 0
    for _ in range(20_000):
        text = random_formula_text(rng)
        try:
            expected = parse_formula_oracle(text)
        except FormulaSyntaxError as e:
            with pytest.raises(FormulaSyntaxError) as exc:
                parse_formula(text)
            assert (exc.value.offset, exc.value.reason) == (e.offset, e.reason), text
            continue
        valid += 1
        assert parse_formula(text) == expected, text
    assert 2_000 < valid < 18_000


DEEP = 10**5


@pytest.mark.parametrize("shape", ["!", "(", "&", "->", "<->", "!("])
def test_deep_formulas_on_every_path(shape):
    # Deep trees are checked here by printed text and by mask; ==, hash
    # and repr on deep trees are checked below.
    pu = generate_universe(["A", "B"])
    full = (1 << len(pu.universe)) - 1
    a = pu.masks["A"]
    names = ["A" if i % 2 == 0 else "B" for i in range(DEEP)]
    leaves = [pu.masks[n] for n in names]
    if shape in ("!", "!("):
        opener, closer = ("!", "") if shape == "!" else ("!(", ")")
        text = opener * DEEP + "A" + closer * DEEP
        printed, mask = "!" * DEEP + "A", a  # DEEP is even
    elif shape == "(":
        text = "(" * DEEP + "A" + ")" * DEEP
        printed, mask = "A", a
    else:
        text = printed = f" {shape} ".join(names)
        if shape == "&":
            mask = reduce(lambda x, y: x & y, leaves)
        elif shape == "<->":
            mask = reduce(lambda x, y: full & ~(x ^ y), leaves)
        else:  # "->" groups to the right
            mask = reduce(lambda y, x: (full & ~x) | y, reversed(leaves))
    f = parse_formula(text)
    assert format_formula(f) == printed
    if printed != text:
        assert format_formula(parse_formula(printed)) == printed
    assert models_mask(pu, f) == mask
    assert variables_of(f) == ({"A"} if shape in ("!", "(", "!(") else {"A", "B"})
    # world "A.!B", at index 1
    assert satisfies({"A": True, "B": False}, f) == bool(mask & 0b10)


def test_deep_unclosed_parenthesis_is_a_positioned_error():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("(" * DEEP + "A")
    assert exc.value.offset == DEEP + 1
    assert exc.value.reason == "expected ')', found None"


# a right spine of unary nodes, and a left spine of binary ones
@pytest.mark.parametrize("opener, closer", [("!", ""), ("(", " -> A)")])
def test_deep_formula_equality_hash_and_repr(opener, closer):
    depth = 20_000

    def build(leaf):
        return parse_formula(opener * depth + leaf + closer * depth)

    a, b, other = build("A"), build("A"), build("B")
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    if opener == "!":
        assert repr(a) == "Not(operand=" * depth + "Var(name='A')" + ")" * depth
    else:
        text = repr(a)
        assert len(text) > 10 * depth and text.count("(") == text.count(")")


def _dataclass_twins():
    """Plain dataclasses with the nodes' names and fields: their generated
    ==, hash and repr are the reference for shallow trees."""
    twins = {}
    for node in (Var, Const, Not, And, Or, Implies, Iff):
        fields = list(node.__dataclass_fields__)
        twins[node] = dataclasses.make_dataclass(node.__name__, fields, frozen=True)
    return twins


def test_equality_hash_and_repr_match_dataclasses_on_shallow_trees():
    twins = _dataclass_twins()

    def twin(f):
        values = [twin(v) if type(v) in twins else v for v in f._values()]
        return twins[type(f)](*values)

    rng = random.Random(2024)
    trees = [random_formula(rng, ["A", "B"], rng.randint(0, 3)) for _ in range(400)]
    trees += [Const(1), Const(True), Not(Const(0)), Not(Const(False)), Var("A")]
    equal_pairs = 0
    for f in trees:
        assert repr(f) == repr(twin(f))
    for _ in range(20_000):
        f, g = rng.choice(trees), rng.choice(trees)
        assert (f == g) == (twin(f) == twin(g)), (f, g)
        assert (f != g) == (twin(f) != twin(g)), (f, g)
        if f == g:
            equal_pairs += f is not g
            assert hash(f) == hash(g)
    assert equal_pairs > 100
    # nodes of different kinds, and a node against a non-node, are unequal
    assert Var("A") != Const(True) and Not(Var("A")) != And(Var("A"), Var("A"))
    assert Var("A") != "A" and Var("A") != twin(Var("A"))
