"""Surface parity: one query spec behind the facade, the CLI and the service.

Every execution option of :class:`repro.session.QuerySpec` is reachable
from each surface that has a spelling for it, a valid value lands in the
same ``ArabesqueConfig`` field whichever surface set it, and an invalid
value is rejected by every surface with the same message.  The table
below must name every option field, so adding one to the spec (the
roadmap's ``trace``) without deciding its fluent method, JSON key and
CLI flag fails here.
"""

import dataclasses

import pytest

from repro.cli import build_parser, spec_from_args
from repro.core import ArabesqueConfig
from repro.graph import assign_labels, gnm_random_graph
from repro.service import ServiceError, parse_request
from repro.session import Miner, QuerySpec, SessionError
from repro.session.spec import CONFIG_FIELDS


def unchanged(value):
    return value


def milliseconds(seconds):
    return seconds * 1000.0


@dataclasses.dataclass(frozen=True)
class Surfaces:
    """How one spec option field is spelled on each surface."""

    fluent: str  # Query method name
    json: "str | None"  # request key (None: deliberately not a request option)
    cli: "str | None"  # flag (None: no flag today)
    valid: object
    invalid: object
    #: fluent/CLI value -> the JSON spelling of the same value.
    to_json: object = unchanged
    #: argparse ``choices`` reject the bad value before the spec sees it.
    cli_choices: bool = False


OPTIONS = {
    "workers": Surfaces("workers", "workers", "--num-workers", 3, 0),
    "backend": Surfaces(
        "backend", "backend", "--backend", "thread", "gpu", cli_choices=True
    ),
    "storage": Surfaces(
        "storage", "storage", "--storage", "list", "bogus", cli_choices=True
    ),
    "limit": Surfaces("limit", "limit", "--limit", 7, -1),
    "deadline_seconds": Surfaces(
        "deadline", "deadline_ms", None, 2.5, -1.0, to_json=milliseconds
    ),
    "max_embeddings": Surfaces(
        "max_embeddings", "max_embeddings", None, 10**6, 0
    ),
    # The service never takes these from a request: it answers aggregate
    # workloads with their table (no collection to toggle), and a network
    # request must not steer the server's filesystem (--checkpoint-root
    # is the operator's knob).
    "collect": Surfaces("collect", None, None, False, "no"),
    "checkpoint_dir": Surfaces(
        "checkpoint", None, "--checkpoint-dir", "ckpt/run", ""
    ),
}


def test_every_option_field_names_its_surfaces():
    assert set(OPTIONS) == set(CONFIG_FIELDS)
    spec_fields = {field.name for field in dataclasses.fields(QuerySpec)}
    config_fields = {field.name for field in dataclasses.fields(ArabesqueConfig)}
    assert set(CONFIG_FIELDS) <= spec_fields
    assert set(CONFIG_FIELDS.values()) <= config_fields


def cli_spec(flag, value):
    args = build_parser().parse_args(["cliques", "graph.edges", flag, str(value)])
    return spec_from_args(args)


@pytest.mark.parametrize("field", sorted(OPTIONS))
def test_option_agrees_across_surfaces(field):
    option = OPTIONS[field]
    target = CONFIG_FIELDS[field]
    miner = Miner(assign_labels(gnm_random_graph(12, 20, seed=2), 2, seed=2))

    def fluent_spec(value):
        query = miner.cliques(3)
        assert getattr(query, option.fluent)(value) is query
        return query.spec

    def json_spec(value):
        body = {"graph": "g", "max_size": 3, option.json: option.to_json(value)}
        return parse_request("cliques", body)

    # A valid value lands in the same ArabesqueConfig field everywhere.
    specs = [fluent_spec(option.valid)]
    if option.json is not None:
        specs.append(json_spec(option.valid))
    if option.cli is not None:
        specs.append(cli_spec(option.cli, option.valid))
    for spec in specs:
        assert spec.config_overrides()[target] == option.valid
        config = dataclasses.replace(ArabesqueConfig(), **spec.config_overrides())
        assert getattr(config, target) == option.valid

    # An invalid value is rejected everywhere, with one message.
    with pytest.raises(SessionError) as fluent_error:
        fluent_spec(option.invalid)
    message = str(fluent_error.value)
    assert message
    if option.json is not None:
        with pytest.raises(ServiceError) as json_error:
            json_spec(option.invalid)
        assert str(json_error.value) == message
    if option.cli is not None:
        if option.cli_choices:
            with pytest.raises(SystemExit):
                cli_spec(option.cli, option.invalid)
        else:
            with pytest.raises(SessionError) as cli_error:
                cli_spec(option.cli, option.invalid)
            assert str(cli_error.value) == message


@pytest.mark.parametrize("max_size,min_size,accepted", [
    (4, 2, True), (2, 4, False), (3, 3, True), (5, 1, True), (1, 2, False), (3, 4, False),
])
def test_clique_size_range_agrees_across_surfaces(max_size, min_size, accepted):
    """Cliques and motifs take the same size range on every surface."""
    miner = Miner(gnm_random_graph(12, 20, seed=2))
    surfaces = [
        surface
        for workload in ("cliques", "motifs")
        for surface in (
            lambda workload=workload: getattr(miner, workload)(
                max_size, min_size=min_size).spec,
            lambda workload=workload: parse_request(
                workload, {"graph": "g", "max_size": max_size, "min_size": min_size}),
            lambda workload=workload: spec_from_args(build_parser().parse_args(
                [workload, "graph.edges", "--max-size", str(max_size),
                 "--min-size", str(min_size)])),
        )
    ]
    if accepted:
        specs = [surface() for surface in surfaces]
        assert [spec.workload for spec in specs] == ["cliques"] * 3 + ["motifs"] * 3
        assert {(spec.max_size, spec.min_size) for spec in specs} == {
            (max_size, min_size)}
        return
    messages = set()
    for surface in surfaces:
        with pytest.raises((SessionError, ServiceError)) as error:
            surface()
        messages.add(str(error.value))
    assert messages == {"need 1 <= min_size <= max_size"}


@pytest.mark.parametrize("workload,params,build", [
    ("motifs", {"max_size": 3}, lambda miner: miner.motifs(3)),
    ("fsm", {"support": 2, "max_edges": 2}, lambda miner: miner.fsm(2, max_edges=2)),
], ids=["motifs", "fsm"])
def test_exhaustive_limit_is_accepted_and_guided_limit_refused_alike(
    workload, params, build
):
    miner = Miner(assign_labels(gnm_random_graph(12, 20, seed=2), 2, seed=2))

    def fluent_spec(exhaustive):
        query = build(miner)
        if exhaustive:
            query = query.exhaustive()
        return query.limit(5).spec

    def json_spec(exhaustive):
        return parse_request(
            workload, {"graph": "g", **params, "exhaustive": exhaustive, "limit": 5})

    spec = fluent_spec(True)
    assert json_spec(True) == spec
    assert spec.config_overrides()["output_limit"] == 5
    miner.query(spec).run()
    messages = set()
    for surface in (fluent_spec, json_spec):
        with pytest.raises((SessionError, ServiceError)) as error:
            surface(False)
        messages.add(str(error.value))
    assert len(messages) == 1 and "chain .exhaustive() first" in messages.pop()


def test_documented_request_keys_match_the_parser_and_the_spec():
    """docs/service.md's request-key table is checked, not trusted."""
    import re
    from pathlib import Path

    from repro.service import WORKLOADS

    text = (Path(__file__).parent.parent / "docs" / "service.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", text, re.MULTILINE)
    assert rows, "request-key table not found in docs/service.md"
    spec_fields = {field.name for field in dataclasses.fields(QuerySpec)}
    assert {field for _, field, _ in rows} == spec_fields - {
        "workload", "collect", "checkpoint_dir"
    }
    for workload in WORKLOADS:
        documented = {
            key for key, _, takers in rows
            if takers.strip() == "all" or workload in takers.split(", ")
        }
        with pytest.raises(ServiceError) as error:
            parse_request(workload, {"no_such_key": 1})
        allowed = set(str(error.value).split("allowed: ")[1].split(", "))
        # `exhaustive` parses everywhere; the spec refuses it for cliques.
        assert allowed - {"graph", "workload"} == documented | {"exhaustive"}
