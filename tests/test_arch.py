"""Architecture model, builtin catalog, and config round-trip tests."""

import dataclasses
import math
import pathlib

import pytest

from hetqc.arch import (_LINK_FIELDS, _MODULE_FIELDS, BUILTIN_NAMES,
                        CYCLE_TIME_RANGE_S,
                        ConfigError, LinkSpec, ModuleSpec, apply_override,
                        builtin_architecture, derive_boundary,
                        load_architecture, parse_config_text, to_config_text,
                        validate)

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "hetqc" / "configs"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_validate_clean(name):
    assert validate(builtin_architecture(name)) == []


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_config_round_trip(name):
    spec = builtin_architecture(name)
    text = to_config_text(spec)
    back = parse_config_text(text)
    assert back.name == spec.name
    assert back.modules == spec.modules
    assert back.links == spec.links
    assert to_config_text(back) == text


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shipped_configs_match_builtins(name):
    text = (CONFIG_DIR / f"{name}.cfg").read_text()
    assert text == to_config_text(builtin_architecture(name))


def test_builtin_instances_are_fresh():
    a = builtin_architecture("A1")
    a.modules[0].n_logical = 99
    assert builtin_architecture("A1").modules[0].n_logical == 3
    with pytest.raises(ConfigError):
        builtin_architecture("A7")


def test_module_lookup_helpers():
    spec = builtin_architecture("B6")
    assert spec.module("raqm0").kind == "RAQM"
    with pytest.raises(KeyError):
        spec.module("nope")
    assert [m.id for m in spec.compute_modules()] == ["qpu0", "asqpu0"]
    assert {m.id for m in spec.memory_modules()} == {"cache0", "raqm0"}
    assert len(spec.links_of("qpu0")) == 2
    assert spec.module("qpu0").capacity_per_core == 3


def test_override_basics():
    spec = builtin_architecture("A2")
    apply_override(spec, "qpu.d=21")
    assert spec.module("qpu0").code.distance == 21
    apply_override(spec, "raqm0.t_cycle_s=2e-4")
    assert spec.module("raqm0").t_cycle_s == 2e-4
    apply_override(spec, "qpu.p_phys=1e-4")
    assert spec.module("qpu0").modality.p_phys == 1e-4
    apply_override(spec, "raqm.n=500")
    assert spec.module("raqm0").n_logical == 500
    assert validate(spec) == []


#: a new value for each config key of B5's raqm0
_NEW_VALUES = {
    "kind": "STQM", "logical_qubits": "1000", "cores": "2", "edges": "12",
    "specialty": "adder", "code_family": "gross", "code_distance": "11",
    "code_anc_fraction": "0.5", "modality": "custom_na", "p_phys": "2e-4",
    "p_th": "0.01", "t1_s": "50.0", "t2_s": "40.0", "t_cycle_s": "2e-4",
    "t_cycle_min_s": "1e-4", "t_cycle_max_s": "2e-3", "state": "T",
    "n_dist": "15", "n_mf_per_qpu": "1.5", "production_cycles": "40",
    "injection_cycles": "20", "eps_magic": "1e-8", "k_swap": "3",
    "n_transfer": "30",
}


@pytest.mark.parametrize("key", sorted(_MODULE_FIELDS))
def test_override_survives_round_trip(key):
    spec = builtin_architecture("B5")
    apply_override(spec, f"raqm0.{key}={_NEW_VALUES[key]}")
    assert spec.modules != builtin_architecture("B5").modules
    assert parse_config_text(to_config_text(spec)).modules == spec.modules


#: a new value for each config key of B5's qpu0-raqm0 link; every builtin
#: link has the defaults of eps_tele, n_buf and n_anc_pump
_NEW_LINK_VALUES = {"protocol": "lattice_surgery", "eps_tele": "3e-05",
                    "n_buf": "5", "n_anc_pump": "2"}


@pytest.mark.parametrize("key", sorted(_LINK_FIELDS))
def test_link_value_survives_round_trip(key):
    # links take no override, so the new value goes in the config text
    builtin = builtin_architecture("B5")
    good = to_config_text(builtin)
    at = good.index("[link qpu0 raqm0]")
    old = f"{key} = {getattr(builtin.links[1], key)}\n"
    text = good[:at] + good[at:].replace(
        old, f"{key} = {_NEW_LINK_VALUES[key]}\n", 1)
    spec = parse_config_text(text)
    value = _LINK_FIELDS[key][2](_NEW_LINK_VALUES[key])
    assert value != getattr(builtin.links[1], key)
    new_link = dataclasses.replace(builtin.links[1], **{key: value})
    assert spec.links == [builtin.links[0], new_link, builtin.links[2]]
    assert to_config_text(spec) == text


def test_override_rejects_bad_input():
    spec = builtin_architecture("A2")
    for bad in ("qpu.d", "missingdot=3", "nomodule.d=21", "qpu.bogus=1",
                "qpu.d=fifteen"):
        with pytest.raises(ConfigError):
            apply_override(spec, bad)


def test_override_ambiguous_kind():
    spec = builtin_architecture("A1")
    twin = dataclasses.replace(spec.modules[0])
    twin.id = "qpu1"
    spec.modules.append(twin)
    with pytest.raises(ConfigError):
        apply_override(spec, "qpu.d=21")
    apply_override(spec, "qpu1.d=21")
    assert spec.module("qpu1").code.distance == 21
    assert spec.module("qpu0").code.distance == 15


def test_load_architecture(tmp_path):
    assert load_architecture("B3").name == "B3"
    path = tmp_path / "custom.cfg"
    path.write_text(to_config_text(builtin_architecture("A3")))
    spec = load_architecture(str(path))
    assert spec.modules == builtin_architecture("A3").modules
    with pytest.raises(ConfigError):
        load_architecture(str(tmp_path / "absent.cfg"))


def test_parse_rejects_malformed_text():
    with pytest.raises(ConfigError):
        parse_config_text("[module qpu0]\nkind = QPU\n")
    with pytest.raises(ConfigError):
        parse_config_text("[architecture]\nname = x\n\n[widget w]\n")
    with pytest.raises(ConfigError):
        parse_config_text("[architecture]\nname = x\n\n"
                          "[module m]\nkind = QPU\n")  # missing required keys
    with pytest.raises(ConfigError):
        parse_config_text("not ini at all [")
    good = to_config_text(builtin_architecture("A1"))
    with pytest.raises(ConfigError):
        parse_config_text(good.replace("kind = STQM", "kinds = STQM"))
    with pytest.raises(ConfigError):
        parse_config_text(good.replace("protocol = transversal", "eps_tele = 1"))


@pytest.mark.parametrize(("section", "key"), [
    ("[link qpu0 stqm0]", "bell_rate_hz = 100000000.0"),
    ("[link qpu0 stqm0]", "bell_eps = 0.001"),
    ("[module stqm0]", "transfer_distance = 19"),
    ("[module stqm0]", "active_qec = false"),
])
def test_parse_rejects_removed_keys(section, key):
    good = to_config_text(builtin_architecture("A1"))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(good.replace(section, f"{section}\n{key}"))


def test_validate_flags_structural_problems():
    spec = builtin_architecture("A2")
    qpu = spec.module("qpu0")
    qpu.code = dataclasses.replace(qpu.code, distance=14)
    qpu.cores = 2  # 3 qubits over 2 cores
    problems = validate(spec)
    assert any("odd" in p for p in problems)
    assert any("divisible" in p for p in problems)

    spec = builtin_architecture("A2")
    spec.links[0].protocol = "carrier_pigeon"
    assert any("protocol" in p for p in validate(spec))

    spec = builtin_architecture("A1")
    spec.links[0].protocol = "lattice_surgery"
    assert any("transversal" in p for p in validate(spec))

    spec = builtin_architecture("baseline1000")
    qsf = spec.module("qsf0")
    qsf.state = "magic"
    assert any("factory state" in p for p in validate(spec))

    spec = builtin_architecture("A1")
    qpu = spec.module("qpu0")
    qpu.modality = dataclasses.replace(qpu.modality, p_phys=1e-2)
    assert any("below" in p for p in validate(spec))

    spec = builtin_architecture("A3")
    qpu = spec.module("qpu0")
    qpu.modality = dataclasses.replace(qpu.modality, p_phys=0.0)
    assert any("p_phys 0.0 not positive" in p for p in validate(spec))

    for t1_s, t2_s in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)):
        spec = builtin_architecture("A1")
        stqm = spec.module("stqm0")
        stqm.modality = dataclasses.replace(stqm.modality, t1_s=t1_s,
                                            t2_s=t2_s)
        assert any("non-positive T1 or T2" in p for p in validate(spec))

    for t_cycle_s in (5e-324, 1e-13, 1e4):
        spec = builtin_architecture("A2")
        spec.module("qpu0").t_cycle_s = t_cycle_s
        assert any("cycle time" in p for p in validate(spec))
    spec = builtin_architecture("A2")
    spec.module("qpu0").t_cycle_s = CYCLE_TIME_RANGE_S[0]
    assert validate(spec) == []

    spec = builtin_architecture("A1")
    spec.module("stqm0").kind = "QB"
    assert any("unknown kind" in p for p in validate(spec))

    spec = builtin_architecture("A1")
    spec.links[0].eps_tele = math.inf
    assert any("eps_tele must be finite" in p for p in validate(spec))

    spec = builtin_architecture("A1")
    spec.modules.append(dataclasses.replace(spec.module("qpu0"), id="qpu1"))
    spec.links.append(LinkSpec("qpu1", "stqm0", "transversal"))
    assert validate(spec) == ["architecture has more than one QPU module"]

    spec = builtin_architecture("A1")
    ccz = builtin_architecture("Mono").module("qsf0")
    spec.modules.append(dataclasses.replace(ccz, id="qsf1"))
    assert validate(spec) == ["architecture has more than one QSF module"]

    # the resource count prices one memory of each kind: A1 with a second
    # linked STQM once counted 825,030 qubits, as A1 alone
    for name, kind in (("A1", "STQM"), ("B2", "STQM"), ("A2", "RAQM"),
                       ("B2", "RAQM")):
        spec = builtin_architecture(name)
        mem = spec.by_kind(kind)[0]
        spec.modules.append(dataclasses.replace(mem, id=f"{kind.lower()}9"))
        spec.links.append(dataclasses.replace(spec.links_of(mem.id)[0],
                                              b=f"{kind.lower()}9"))
        assert validate(spec) == \
            [f"architecture has more than one {kind} module"], name

    # the compute side comes first, and the other end is a memory
    for a, b in (("stqm0", "qpu0"), ("qpu0", "qsf0")):
        spec = builtin_architecture("A1")
        spec.links = [LinkSpec(a, b, "transversal")]
        assert f"link {a}-{b}: must join a compute module (first) to a " \
            "memory module (second)" in validate(spec)

    spec = builtin_architecture("A1")
    spec.links = []
    assert validate(spec) == ["module qpu0: has no link",
                              "module stqm0: has no link"]

    # a memory unlinked next to a linked one; the QPU stays linked
    spec = builtin_architecture("B2")
    spec.links = [l for l in spec.links if l.b != "raqm0"]
    assert validate(spec) == ["module raqm0: has no link"]

    spec = builtin_architecture("B4")
    spec.links = [l for l in spec.links if l.a != "asqpu0"]
    assert validate(spec) == ["module asqpu0: has no link"]

    # memory linked to the ASQPU alone leaves the QPU without one
    spec = builtin_architecture("B4")
    spec.links = [l for l in spec.links if l.a != "qpu0"]
    assert validate(spec) == ["module qpu0: has no link"]

    # a QPU with no memory needs no link
    assert validate(builtin_architecture("baseline1000")) == []


@pytest.mark.parametrize("module_id", ["qpu0", "raqm0"])
def test_validate_flags_distance_below_one(module_id):
    # a code other than the surface code has no odd-distance rule, and a
    # distance of 0 would make the error model raise mid-compile
    spec = builtin_architecture("A2")
    m = spec.module(module_id)
    m.code = dataclasses.replace(m.code, family="gross", distance=0)
    assert validate(spec) == [
        f"module {module_id}: code distance must be >= 1"]


def _set_module(module_id, **fields):
    """An edit of a spec that sets ``fields`` on one module; a ``code_``
    name sets that field of its code."""
    def edit(spec):
        m = spec.module(module_id)
        for name, value in fields.items():
            if name.startswith("code_"):
                m.code = dataclasses.replace(m.code, **{name[5:]: value})
            else:
                setattr(m, name, value)
    return edit


def _set_link(**fields):
    """An edit of a spec that sets ``fields`` on its first link."""
    def edit(spec):
        for name, value in fields.items():
            setattr(spec.links[0], name, value)
    return edit


@pytest.mark.parametrize(("name", "edit", "problems"), [
    pytest.param("baseline1000", _set_module("qsf0", id="qpu0"),
                 ["module qpu0: duplicate id"], id="duplicate-id"),
    pytest.param("A1", _set_module("qpu0", code_family="toric"),
                 ["module qpu0: unknown code family 'toric'"],
                 id="code-family"),
    pytest.param("A1", _set_module("qpu0", code_c_anc=-0.5),
                 ["module qpu0: negative ancilla fraction"], id="c-anc"),
    pytest.param("A2", _set_module("raqm0", t_cycle_min_s=1e-3,
                                   t_cycle_max_s=5e-5),
                 ["module raqm0: cycle-time range inverted"],
                 id="cycle-range-inverted"),
    pytest.param("A2", _set_module("raqm0", t_cycle_min_s=1e-4),
                 ["module raqm0: nominal cycle outside range"],
                 id="nominal-cycle-outside"),
    pytest.param("A1", _set_module("qpu0", cores=0),
                 ["module qpu0: needs at least one core"], id="zero-cores"),
    pytest.param("B4", _set_module("asqpu0", specialty=None),
                 ["module asqpu0: an ASQPU needs a specialty"],
                 id="asqpu-specialty"),
    pytest.param("A1", _set_module("qsf0", n_dist=0),
                 ["module qsf0: n_dist must be >= 1"], id="n-dist"),
    pytest.param("A1", _set_module("qsf0", injection_cycles=0),
                 ["module qsf0: injection/production cycles must be >= 1"],
                 id="injection-cycles"),
    pytest.param("A1", _set_module("qsf0", production_cycles=0),
                 ["module qsf0: injection/production cycles must be >= 1"],
                 id="production-cycles"),
    pytest.param("A1", _set_module("qsf0", eps_magic=0.0),
                 ["module qsf0: eps_magic outside (0, 1)"], id="eps-magic-0"),
    pytest.param("A1", _set_module("qsf0", eps_magic=1.0),
                 ["module qsf0: eps_magic outside (0, 1)"], id="eps-magic-1"),
    pytest.param("A1", _set_module("qsf0", n_mf_per_qpu=-1.0),
                 ["module qsf0: negative n_mf_per_qpu"], id="n-mf-negative"),
    pytest.param("baseline1000", _set_module("qsf0", n_mf_per_qpu=1e303),
                 ["module qsf0: distillation tier of inf qubits on qpu0 "
                  "exceeds 1e+30"], id="n-mf-tally-inf"),
    # finite, but its couplers overflowed the estimate's float arithmetic
    pytest.param("baseline1000",
                 lambda spec: (_set_module("qsf0", n_mf_per_qpu=1e300)(spec),
                               _set_module("qpu0", code_distance=41)(spec)),
                 ["module qsf0: distillation tier of 1.21e+308 qubits on "
                  "qpu0 exceeds 1e+30"], id="n-mf-tally-huge"),
    pytest.param("A2", _set_module("raqm0", k_swap=-1),
                 ["module raqm0: negative swap distance"], id="k-swap"),
    pytest.param("A1", _set_link(b="nowhere"),
                 ["module stqm0: has no link",
                  "link qpu0-nowhere: unknown module 'nowhere'"],
                 id="unknown-link-end"),
    pytest.param("A1", _set_link(n_anc_pump=3),
                 ["link qpu0-stqm0: n_anc_pump must be 1 or 2"],
                 id="n-anc-pump"),
    pytest.param("A2", _set_link(n_buf=-1),
                 ["link qpu0-raqm0: negative buffer depth"], id="n-buf"),
    pytest.param("baseline1000",
                 lambda spec: spec.modules.remove(spec.module("qpu0")),
                 ["architecture has no QPU module"], id="no-qpu"),
])
def test_validate_names_each_problem(name, edit, problems):
    spec = builtin_architecture(name)
    edit(spec)
    assert validate(spec) == problems


@pytest.mark.parametrize(("old", "new", "message"), [
    ("logical_qubits = 3\n", "logical_qubits = three\n",
     "module qpu0: bad value for logical_qubits: 'three'"),
    ("n_buf = 2", "n_buf = many", "link qpu0-stqm0: bad value for n_buf: "
     "'many'"),
    ("protocol = transversal\n", "", "link qpu0-stqm0: missing protocol"),
    # an unknown key is named before the required key it misspells
    ("kind = STQM\n", "kinds = STQM\n", "module stqm0: unknown key 'kinds'"),
    ("protocol = transversal\n", "protocl = transversal\n",
     "link qpu0-stqm0: unknown key 'protocl'"),
    # a blank header once raised IndexError
    ("[architecture]\n", "[ ]\n[architecture]\n",
     "unrecognized section [ ]"),
])
def test_parse_names_each_config_error(old, new, message):
    good = to_config_text(builtin_architecture("A1"))
    assert good.count(old) == 1
    with pytest.raises(ConfigError) as info:
        parse_config_text(good.replace(old, new))
    assert str(info.value) == message


def test_derive_boundary():
    a1 = builtin_architecture("A1")
    b = derive_boundary(a1, a1.links[0])
    assert b.n_bdry == 1000 + 2 * 3
    assert b.d_bdry == 15

    a2 = builtin_architecture("A2")
    b = derive_boundary(a2, a2.links[0])
    assert b.n_bdry == 1006
    assert b.d_bdry == 9
