"""Architecture model: modules, links, builtins, config file I/O.

An architecture is a set of modules (compute cores, magic-state factories,
quantum memories) joined by interconnect links.  Module kinds:

* ``QPU``    surface-code compute core(s)
* ``ASQPU``  application-specific compute core, matched to block tags
* ``QSF``    magic-state factory tier (T or CCZ)
* ``STQM``   short-term memory, stores encoded patches without active QEC
* ``RAQM``   random-access memory with active QEC and its own clock

Configs are sectioned key-value text, read and written through one key
table per section kind; builtins round-trip bit-exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

MODULE_KINDS = frozenset({"QPU", "QSF", "ASQPU", "STQM", "RAQM"})
_COMPUTE_KINDS = ("QPU", "ASQPU")
_MEMORY_KINDS = ("STQM", "RAQM")
LINK_PROTOCOLS = frozenset({"transversal", "lattice_surgery"})
CODE_FAMILIES = frozenset({"surface", "gross", "none"})

#: physical qubits and logical capacity of one gross-code block
GROSS_BLOCK_PHYSICAL = 288  # 144 data + 144 check
GROSS_BLOCK_LOGICAL = 12

#: magic-state factory units attached to each application-specific core
ASQPU_FACTORY_UNITS = 12


class ConfigError(ValueError):
    """Raised for unparseable or structurally invalid config input."""


@dataclass(frozen=True)
class CodeSpec:
    family: str
    distance: int
    c_anc: float = 1.0


@dataclass(frozen=True)
class ModalitySpec:
    """Hardware platform parameters shared by a module's qubits."""

    name: str
    p_phys: float
    p_th: float
    t1_s: float
    t2_s: float


@dataclass
class ModuleSpec:
    id: str
    kind: str
    n_logical: int
    code: CodeSpec
    modality: ModalitySpec
    t_cycle_s: float
    t_cycle_min_s: float | None = None
    t_cycle_max_s: float | None = None
    cores: int = 1
    n_edges: int | None = None
    specialty: str | None = None
    # factory tier (QSF)
    state: str | None = None
    n_dist: int = 0
    n_mf_per_qpu: float = 0.0
    production_cycles: int = 0
    injection_cycles: int = 0
    eps_magic: float = 0.0
    # memory tier (RAQM)
    k_swap: int = 0
    n_transfer: int | None = None

    @property
    def capacity_per_core(self) -> int:
        return self.n_logical // max(self.cores, 1)


@dataclass
class LinkSpec:
    """Interconnect from compute module ``a`` (QPU or ASQPU) to memory
    module ``b`` (STQM or RAQM); ``validate`` rejects any other pair."""

    a: str
    b: str
    protocol: str
    eps_tele: float = 1e-4
    n_buf: int = 2
    n_anc_pump: int = 1


@dataclass
class ArchitectureSpec:
    name: str
    modules: list[ModuleSpec] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)

    def module(self, module_id: str) -> ModuleSpec:
        for m in self.modules:
            if m.id == module_id:
                return m
        raise KeyError(f"no module {module_id!r} in {self.name}")

    def by_kind(self, kind: str) -> list[ModuleSpec]:
        return [m for m in self.modules if m.kind == kind]

    def compute_modules(self) -> list[ModuleSpec]:
        return [m for m in self.modules if m.kind in _COMPUTE_KINDS]

    def memory_modules(self) -> list[ModuleSpec]:
        return [m for m in self.modules if m.kind in _MEMORY_KINDS]

    def links_of(self, module_id: str) -> list[LinkSpec]:
        return [l for l in self.links if module_id in (l.a, l.b)]


@dataclass(frozen=True)
class Boundary:
    """Derived interconnect geometry for one compute-memory link."""

    n_bdry: int
    d_bdry: int


def derive_boundary(spec: ArchitectureSpec, link: LinkSpec) -> Boundary:
    """Boundary rail count and merged distance for a compute-memory
    ``link``.  Rails: one per memory patch plus two per compute patch."""
    compute, memory = spec.module(link.a), spec.module(link.b)
    n_bdry = memory.n_logical + 2 * compute.n_logical
    d_bdry = min(compute.code.distance, memory.code.distance)
    return Boundary(n_bdry, d_bdry)


#: accepted QEC cycle times, seconds: wider than any hardware's, and narrow
#: enough that cycle ratios, cycle counts and makespans stay finite
CYCLE_TIME_RANGE_S = (1e-12, 1e3)
#: largest distillation tier n_mf_per_qpu*n_dist*n*d^2 that ``validate``
#: accepts: a count and an estimate that scale a larger one may overflow
DISTILLATION_QUBITS_MAX = 1e30


def _non_finite(where: str, *parts) -> list[str]:
    """One diagnostic per float field of ``parts`` that is NaN or infinite."""
    return [f"{where}: {f.name} must be finite"
            for part in parts for f in fields(part)
            if isinstance(getattr(part, f.name), float)
            and not math.isfinite(getattr(part, f.name))]


def validate(spec: ArchitectureSpec) -> list[str]:
    """Structural diagnostics; an empty list means the architecture is usable.

    It also fixes the one shape later stages rely on: one QPU, at most one
    factory and at most one memory of each kind, each link from a compute
    module (``a``) to a memory (``b``), each memory and ASQPU linked, the
    QPU too when there is memory, and each ASQPU given a specialty, the
    only block tag it runs.  So whether there is a memory module
    alone picks the model, and the resource count, which prices one STQM
    and one RAQM, sees every memory the scheduler uses.
    """
    out: list[str] = []
    seen: set[str] = set()
    linked = {end for l in spec.links for end in (l.a, l.b)}
    has_memory = bool(spec.memory_modules())
    for m in spec.modules:
        where = f"module {m.id}"
        out.extend(_non_finite(where, m, m.code, m.modality))
        if m.id in seen:
            out.append(f"{where}: duplicate id")
        seen.add(m.id)
        if m.kind not in MODULE_KINDS:
            out.append(f"{where}: unknown kind {m.kind!r}")
        if m.n_logical < 0 or (m.kind in _COMPUTE_KINDS + _MEMORY_KINDS
                               and m.n_logical < 1):
            out.append(f"{where}: needs at least one logical qubit")
        if m.id not in linked and (m.kind in ("ASQPU",) + _MEMORY_KINDS
                                   or m.kind == "QPU" and has_memory):
            out.append(f"{where}: has no link")
        if m.code.family not in CODE_FAMILIES:
            out.append(f"{where}: unknown code family {m.code.family!r}")
        if m.code.family == "surface" and (m.code.distance < 3
                                           or m.code.distance % 2 == 0):
            out.append(f"{where}: surface distance must be odd and >= 3")
        elif m.code.distance < 1:
            out.append(f"{where}: code distance must be >= 1")
        if m.code.c_anc < 0:
            out.append(f"{where}: negative ancilla fraction")
        if not 0 < m.modality.p_phys < m.modality.p_th:
            out.append(f"{where}: p_phys {m.modality.p_phys} not positive "
                       f"and below threshold {m.modality.p_th}")
        if m.modality.t1_s <= 0 or m.modality.t2_s <= 0:
            out.append(f"{where}: non-positive T1 or T2")
        elif m.modality.t2_s > 2 * m.modality.t1_s:
            out.append(f"{where}: T2 exceeds 2*T1")
        lo, hi = CYCLE_TIME_RANGE_S
        if not lo <= m.t_cycle_s <= hi:
            out.append(f"{where}: cycle time {m.t_cycle_s} s outside "
                       f"[{lo}, {hi}] s")
        if m.t_cycle_min_s is not None and m.t_cycle_max_s is not None:
            if m.t_cycle_min_s > m.t_cycle_max_s:
                out.append(f"{where}: cycle-time range inverted")
            elif not m.t_cycle_min_s <= m.t_cycle_s <= m.t_cycle_max_s:
                out.append(f"{where}: nominal cycle outside range")
        if m.kind == "ASQPU" and not m.specialty:
            out.append(f"{where}: an ASQPU needs a specialty")
        if m.kind in _COMPUTE_KINDS:
            if m.cores < 1:
                out.append(f"{where}: needs at least one core")
            elif m.n_logical % m.cores:
                out.append(f"{where}: {m.n_logical} qubits not divisible "
                           f"into {m.cores} cores")
        if m.kind == "QSF":
            if m.state not in ("T", "CCZ"):
                out.append(f"{where}: factory state must be T or CCZ")
            if m.n_dist < 1:
                out.append(f"{where}: n_dist must be >= 1")
            if m.injection_cycles < 1 or m.production_cycles < 1:
                out.append(f"{where}: injection/production cycles must be >= 1")
            if not 0 < m.eps_magic < 1:
                out.append(f"{where}: eps_magic outside (0, 1)")
            if m.n_mf_per_qpu < 0:
                out.append(f"{where}: negative n_mf_per_qpu")
            for qpu in spec.by_kind("QPU"):
                tally = (m.n_mf_per_qpu * m.n_dist * qpu.n_logical
                         * qpu.code.distance ** 2)
                if not tally <= DISTILLATION_QUBITS_MAX:
                    out.append(f"{where}: distillation tier of {tally:.3g} "
                               f"qubits on {qpu.id} exceeds "
                               f"{DISTILLATION_QUBITS_MAX:g}")
        if m.kind == "RAQM" and m.k_swap < 0:
            out.append(f"{where}: negative swap distance")
    kinds = {m.id: m.kind for m in spec.modules}
    for l in spec.links:
        where = f"link {l.a}-{l.b}"
        out.extend(_non_finite(where, l))
        for end in (l.a, l.b):
            if end not in kinds:
                out.append(f"{where}: unknown module {end!r}")
        if l.a in kinds and l.b in kinds and (
                kinds[l.a] not in _COMPUTE_KINDS
                or kinds[l.b] not in _MEMORY_KINDS):
            out.append(f"{where}: must join a compute module (first) to a "
                       "memory module (second)")
        if l.protocol not in LINK_PROTOCOLS:
            out.append(f"{where}: unknown protocol {l.protocol!r}")
            continue
        if kinds.get(l.b) == "STQM" and l.protocol != "transversal":
            out.append(f"{where}: short-term memory links must use the "
                       "transversal protocol")
        if l.n_anc_pump not in (1, 2):
            out.append(f"{where}: n_anc_pump must be 1 or 2")
        if l.n_buf < 0:
            out.append(f"{where}: negative buffer depth")
        if not 0 <= l.eps_tele < 1:
            out.append(f"{where}: eps_tele outside [0, 1)")
    if not any(m.kind == "QPU" for m in spec.modules):
        out.append("architecture has no QPU module")
    for kind in ("QPU", "QSF") + _MEMORY_KINDS:
        if len(spec.by_kind(kind)) > 1:
            out.append(f"architecture has more than one {kind} module")
    return out


# ---------------------------------------------------------------- builtins

SC_TRANSMON = ModalitySpec("sc_transmon", p_phys=5e-4, p_th=6e-3,
                           t1_s=1e-4, t2_s=1e-4)
ULC_REI = ModalitySpec("ulc_rei", p_phys=1e-10, p_th=0.2,
                       t1_s=1.98e6, t2_s=3.6e4)
NA_LC = ModalitySpec("na_lc", p_phys=1e-4, p_th=6e-3, t1_s=100.0, t2_s=100.0)
PHOTONIC = ModalitySpec("photonic", p_phys=1e-3, p_th=1e-2, t1_s=1.0, t2_s=1.0)

BUILTIN_NAMES = ("baseline1000", "A1", "A2", "A3", "Mono",
                 "B1", "B2", "B3", "B4", "B5", "B6")


def _qpu(n: int, d: int, cores: int = 1, n_edges: int | None = None) -> ModuleSpec:
    return ModuleSpec("qpu0", "QPU", n, CodeSpec("surface", d), SC_TRANSMON,
                      1e-6, cores=cores,
                      n_edges=n_edges if n_edges is not None else n)


def _factory(state: str, n_dist: int, n_qpu: int, d: int,
             per_qpu: float) -> ModuleSpec:
    return ModuleSpec("qsf0", "QSF", max(round(per_qpu * n_qpu), 1),
                      CodeSpec("surface", d), PHOTONIC, 1e-6,
                      state=state, n_dist=n_dist, n_mf_per_qpu=per_qpu,
                      production_cycles=4 * d, injection_cycles=2 * d,
                      eps_magic=2.1e-9)


def _stqm(n: int, d: int, module_id: str = "stqm0") -> ModuleSpec:
    return ModuleSpec(module_id, "STQM", n, CodeSpec("surface", d), ULC_REI,
                      1e-6)


def _raqm(n: int, code: CodeSpec, t_cycle: float, k_swap: int = 0,
          n_transfer: int | None = None) -> ModuleSpec:
    return ModuleSpec("raqm0", "RAQM", n, code, NA_LC, t_cycle,
                      t_cycle_min_s=5e-5, t_cycle_max_s=1e-3, k_swap=k_swap,
                      n_transfer=n_transfer)


def builtin_architecture(name: str) -> ArchitectureSpec:
    """Fresh instance of a named builtin; raises ConfigError for unknown names."""
    if name == "baseline1000":
        return ArchitectureSpec(name, [
            _qpu(1000, 15, n_edges=2000),
            _factory("T", 72, 1000, 15, 3.0),
        ])
    if name == "A1":
        return ArchitectureSpec(name, [
            _qpu(3, 15), _factory("T", 72, 3, 15, 3.0),
            _stqm(1000, 15),
        ], [LinkSpec("qpu0", "stqm0", "transversal")])
    if name in ("A2", "A3"):
        t_qm = 5e-5 if name == "A2" else 1e-3
        return ArchitectureSpec(name, [
            _qpu(3, 15), _factory("T", 72, 3, 15, 3.0),
            _raqm(1000, CodeSpec("surface", 9), t_qm),
        ], [LinkSpec("qpu0", "raqm0", "lattice_surgery")])
    if name == "Mono":
        return ArchitectureSpec(name, [
            _qpu(1399, 25, n_edges=2798),
            _factory("CCZ", 12, 1399, 25, 12 / 1399),
        ])
    if name in ("B1", "B2", "B3", "B4", "B5", "B6"):
        cache_n = 1399 if name in ("B1", "B4") else 145
        modules = [
            _qpu(6, 19, cores=2, n_edges=6),
            _factory("CCZ", 12, 6, 19, 0.67),
            _stqm(cache_n, 19, "cache0"),
        ]
        links = [LinkSpec("qpu0", "cache0", "transversal")]
        if name in ("B2", "B5"):
            modules.append(_raqm(1254, CodeSpec("surface", 9), 1e-3,
                                 k_swap=4, n_transfer=22))
            links.append(LinkSpec("qpu0", "raqm0", "transversal"))
        elif name in ("B3", "B6"):
            modules.append(_raqm(1260, CodeSpec("gross", 12), 1e-3,
                                 k_swap=4, n_transfer=26))
            links.append(LinkSpec("qpu0", "raqm0", "transversal"))
        if name in ("B4", "B5", "B6"):
            modules.append(ModuleSpec(
                "asqpu0", "ASQPU", 37, CodeSpec("surface", 19), SC_TRANSMON,
                1e-6, n_edges=37, specialty="adder"))
            links.append(LinkSpec("asqpu0", "cache0", "transversal"))
        return ArchitectureSpec(name, modules, links)
    raise ConfigError(f"unknown builtin architecture {name!r}")


# ------------------------------------------------------------- config I/O

#: config key -> (ModuleSpec attribute, field of that attribute's
#: CodeSpec or ModalitySpec or None for the attribute itself, type, emit
#: when != this default), in file order
_MODULE_FIELDS = {
    "kind": ("kind", None, str, None),
    "logical_qubits": ("n_logical", None, int, None),
    "cores": ("cores", None, int, 1),
    "edges": ("n_edges", None, int, None),
    "specialty": ("specialty", None, str, None),
    "code_family": ("code", "family", str, None),
    "code_distance": ("code", "distance", int, None),
    "code_anc_fraction": ("code", "c_anc", float, None),
    "modality": ("modality", "name", str, None),
    "p_phys": ("modality", "p_phys", float, None),
    "p_th": ("modality", "p_th", float, None),
    "t1_s": ("modality", "t1_s", float, None),
    "t2_s": ("modality", "t2_s", float, None),
    "t_cycle_s": ("t_cycle_s", None, float, None),
    "t_cycle_min_s": ("t_cycle_min_s", None, float, None),
    "t_cycle_max_s": ("t_cycle_max_s", None, float, None),
    "state": ("state", None, str, None),
    "n_dist": ("n_dist", None, int, 0),
    "n_mf_per_qpu": ("n_mf_per_qpu", None, float, 0.0),
    "production_cycles": ("production_cycles", None, int, 0),
    "injection_cycles": ("injection_cycles", None, int, 0),
    "eps_magic": ("eps_magic", None, float, 0.0),
    "k_swap": ("k_swap", None, int, 0),
    "n_transfer": ("n_transfer", None, int, None),
}

#: keys a module section must set
_REQUIRED_KEYS = ("kind", "logical_qubits", "code_family", "code_distance",
                  "p_phys", "p_th", "t1_s", "t2_s", "t_cycle_s")

#: config key -> (LinkSpec attribute, None, type, None), in file order: the
#: shape of ``_MODULE_FIELDS``, with no default, so every key is written
_LINK_FIELDS = {
    "protocol": ("protocol", None, str, None),
    "eps_tele": ("eps_tele", None, float, None),
    "n_buf": ("n_buf", None, int, None),
    "n_anc_pump": ("n_anc_pump", None, int, None),
}


def _get(spec, key: str, table: dict):
    """The value of config key ``key`` of ``table`` in ``spec``."""
    attr, part = table[key][:2]
    value = getattr(spec, attr)
    return value if part is None else getattr(value, part)


def _set(spec, key: str, raw: str, table: dict) -> None:
    """Set config key ``key`` of ``table`` in ``spec`` from its text ``raw``;
    raises ValueError when ``raw`` does not convert to the key's type."""
    attr, part, kind, _ = table[key]
    value = kind(raw)
    if part is not None:
        value = replace(getattr(spec, attr), **{part: value})
    setattr(spec, attr, value)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def to_config_text(spec: ArchitectureSpec) -> str:
    """Serialize deterministically; parse(to_config_text(x)) == x."""
    out = io.StringIO()
    out.write(f"[architecture]\nname = {spec.name}\n")
    sections = [(f"module {m.id}", m, _MODULE_FIELDS) for m in spec.modules]
    sections += [(f"link {l.a} {l.b}", l, _LINK_FIELDS) for l in spec.links]
    for header, item, table in sections:
        out.write(f"\n[{header}]\n")
        for key, (_, _, _, default) in table.items():
            value = _get(item, key, table)
            if value is not None and (default is None or value != default):
                out.write(f"{key} = {_fmt(value)}\n")
    return out.getvalue()


def parse_config_text(text: str) -> ArchitectureSpec:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    if "architecture" not in cp:
        raise ConfigError("missing [architecture] section")
    spec = ArchitectureSpec(cp["architecture"].get("name", "unnamed"))
    for section in cp.sections():
        if section == "architecture":
            continue
        parts = section.split()
        if len(parts) == 2 and parts[0] == "module":
            unset = ModuleSpec(parts[1], None, None, CodeSpec(None, None),
                               ModalitySpec("custom", None, None, None, None),
                               None)
            spec.modules.append(_parse(f"module {parts[1]}", cp[section],
                                       _MODULE_FIELDS, _REQUIRED_KEYS, unset))
        elif len(parts) == 3 and parts[0] == "link":
            spec.links.append(_parse(
                f"link {parts[1]}-{parts[2]}", cp[section], _LINK_FIELDS,
                ("protocol",), LinkSpec(parts[1], parts[2], None)))
        else:
            raise ConfigError(f"unrecognized section [{section}]")
    return spec


def _parse(where: str, section, table: dict, required: tuple, spec):
    """The section's keys set on ``spec``, as overrides; raises ConfigError
    naming a bad value, then an unknown key, then a missing required key."""
    for key in table:
        raw = section.get(key)
        if raw is not None:
            try:
                _set(spec, key, raw, table)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key}: "
                                  f"{raw!r}") from exc
    for key in section:
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in required:
        if _get(spec, key, table) is None:
            # named by its spec attribute, or its key within a part
            attr, part = table[key][:2]
            raise ConfigError(f"{where}: missing "
                              f"{attr if part is None else key}")
    return spec


_OVERRIDE_ALIASES = {"d": "code_distance", "n": "logical_qubits"}


def apply_override(spec: ArchitectureSpec, override: str) -> None:
    """Apply ``<module>.<key>=<value>`` in place.

    ``<module>`` is a module id, or a module kind in lowercase when unique
    (so ``qpu.d=21`` works on any builtin).  Keys are config-file keys, with
    ``d`` and ``n`` accepted as shorthand.
    """
    head, eq, raw_value = override.partition("=")
    if not eq:
        raise ConfigError(f"override {override!r} must look like module.key=value")
    target, dot, key = head.partition(".")
    if not dot:
        raise ConfigError(f"override {override!r} must name module.key")
    key = _OVERRIDE_ALIASES.get(key, key)
    matches = [m for m in spec.modules if m.id == target]
    if not matches:
        matches = [m for m in spec.modules if m.kind.lower() == target.lower()]
    if not matches:
        raise ConfigError(f"override: no module matching {target!r}")
    if len(matches) > 1:
        raise ConfigError(f"override: {target!r} is ambiguous")
    if key not in _MODULE_FIELDS:
        raise ConfigError(f"override: unknown key {key!r}")
    try:
        _set(matches[0], key, raw_value, _MODULE_FIELDS)
    except ValueError as exc:
        raise ConfigError(f"override {override!r}: bad value") from exc


def load_architecture(name_or_path: str) -> ArchitectureSpec:
    """Builtin by name, else a config file by path."""
    if name_or_path in BUILTIN_NAMES:
        return builtin_architecture(name_or_path)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read architecture {name_or_path!r}: {exc}")
    return parse_config_text(text)


__all__ = [
    "MODULE_KINDS", "LINK_PROTOCOLS", "GROSS_BLOCK_PHYSICAL",
    "GROSS_BLOCK_LOGICAL", "ASQPU_FACTORY_UNITS", "ConfigError", "CodeSpec",
    "ModalitySpec", "ModuleSpec", "LinkSpec", "ArchitectureSpec", "Boundary",
    "derive_boundary", "validate", "builtin_architecture", "BUILTIN_NAMES",
    "to_config_text", "parse_config_text", "apply_override",
    "load_architecture", "CYCLE_TIME_RANGE_S", "DISTILLATION_QUBITS_MAX",
]
