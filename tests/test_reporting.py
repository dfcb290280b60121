"""Report assembly, config merging, custom input files, exit codes, and the
byte-identical serialization guarantee."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from quadcert import groebner, reporting, variety
from quadcert.cli import assemble_config, build_parser, main, parse_triple
from quadcert.reporting import (
    CheckRecord,
    GroupSelection,
    VerificationConfig,
    VerificationReport,
    _freeness_records,
    _groups_records,
    _orbit_records,
    load_custom_group,
    load_custom_quadrics,
    render_report,
    resolve_selections,
    run,
    write_report,
)
from quadcert.cyclotomic import SUPPORTED_ORDERS
from quadcert.groups import CLAIM_KEYS, closure, make_sigma, make_tau, standard_group
from quadcert.linalg import ExactMatrix, MonomialMatrix
from quadcert.variety import (
    ODPContext,
    base_point,
    build_quadrics,
    check_ideal_invariance,
    draw_specializations,
    planted_control_system,
    singular_orbit,
)

pytestmark = pytest.mark.filterwarnings("error")


def make_config(**overrides):
    base = dict(checks=("groups",), group="G")
    base.update(overrides)
    return VerificationConfig(**base)


class TestConfig:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            make_config(checks=("groups", "spectra"))

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="group"):
            make_config(group="G3")

    def test_custom_group_needs_path(self):
        with pytest.raises(ValueError, match="custom"):
            make_config(group="custom")

    def test_custom_group_path_needs_group_custom(self, tmp_path, capsys):
        # a group file with any other --group would go unread while the
        # report's config names it
        path = write_custom_group(tmp_path / "g.json", list(range(8)), [0] * 8)
        with pytest.raises(ValueError, match="given together"):
            make_config(group="all", custom_group_path=path)
        out = tmp_path / "r.json"
        assert main(["groups", "--custom-group", path, "--json", str(out)]) == 2
        assert "bad configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            make_config(scope="everything")

    def test_bad_triple_length_rejected(self):
        with pytest.raises(ValueError, match="3 entries"):
            make_config(y_triples=((Fraction(1), Fraction(2)),))

    def test_zero_specializations_need_explicit_triples(self):
        with pytest.raises(ValueError, match="specialization"):
            make_config(specializations=0)
        cfg = make_config(
            specializations=0, y_triples=((Fraction(1), Fraction(2), Fraction(3)),)
        )
        assert cfg.to_dict()["y"] == ["1,2,3"]

    def test_echo_is_json_clean(self):
        cfg = make_config(y_triples=((Fraction(1, 2), Fraction(-3, 4), Fraction(5)),))
        echoed = json.loads(json.dumps(cfg.to_dict()))
        assert echoed["y"] == ["1/2,-3/4,5"]
        assert echoed["group"] == "G"


class TestVerdicts:
    PASSING = CheckRecord("groups", "G")
    FAILING = CheckRecord("groups", "G", ("claim order failed: actual order 32",))
    INCONCLUSIVE = CheckRecord("orbit", "G @ (1,0,3)", ("screen: y2 = 0",), inconclusive=True)

    @pytest.mark.parametrize(
        "witnesses, inconclusive, verdict",
        [
            ((), False, "pass"),
            (("w",), False, "fail"),
            ((), True, "inconclusive"),
            (("w",), True, "inconclusive"),
        ],
    )
    def test_verdict_follows_witnesses(self, witnesses, inconclusive, verdict):
        record = CheckRecord("groups", "G", witnesses, inconclusive=inconclusive)
        assert record.verdict == verdict
        # the derived verdict is serialized, the `inconclusive` flag is not
        assert list(record.to_dict().items()) == [
            ("id", "groups"),
            ("target", "G"),
            ("verdict", verdict),
            ("witnesses", list(witnesses)),
            ("timing", 0.0),
        ]

    def test_empty_report_passes(self):
        report = VerificationReport("0", make_config(), ())
        assert report.overall == "pass"
        assert report.exit_code == 0

    def test_fail_dominates_inconclusive(self):
        report = VerificationReport(
            "0", make_config(), (self.PASSING, self.INCONCLUSIVE, self.FAILING)
        )
        assert report.overall == "fail"
        assert report.exit_code == 1

    def test_inconclusive_dominates_pass(self):
        report = VerificationReport("0", make_config(), (self.PASSING, self.INCONCLUSIVE))
        assert report.overall == "inconclusive"
        assert report.exit_code == 2


class TestRendering:
    def test_json_has_fixed_top_level_keys(self):
        report = run(make_config())
        data = json.loads(render_report(report, "json"))
        assert list(data) == ["version", "config", "checks", "overall"]
        assert list(data["checks"][0]) == ["id", "target", "verdict", "witnesses", "timing"]

    def test_text_mentions_every_record_and_overall(self):
        report = run(make_config())
        text = render_report(report, "text")
        assert "groups" in text and "overall: pass" in text

    def test_unknown_format_rejected(self):
        report = VerificationReport("0", make_config(), ())
        with pytest.raises(ValueError, match="format"):
            render_report(report, "yaml")

    def test_write_report_round_trips(self, tmp_path):
        report = run(make_config())
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert json.loads(path.read_text())["overall"] == "pass"


class TestTripleParsing:
    def test_plain_and_fractional(self):
        assert parse_triple("1/2, -3/4 ,5") == (
            Fraction(1, 2),
            Fraction(-3, 4),
            Fraction(5),
        )

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="three"):
            parse_triple("1,2")

    def test_garbage(self):
        with pytest.raises(ValueError, match="bad rational"):
            parse_triple("1,x,3")

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="bad rational"):
            parse_triple("1/0,2,3")


class TestConfigMerging:
    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"group": "G2", "seed": 7, "scope": "all"}))
        args = build_parser().parse_args(
            ["groups", "--config", str(cfg_file), "--group", "G1"]
        )
        config = assemble_config(args)
        assert config.group == "G1"  # flag wins
        assert config.seed == 7  # file fills the gap
        assert config.scope == "all"
        assert config.checks == ("groups",)

    def test_file_y_triples_parsed(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"y": ["1/2,1/3,1/5"]}))
        args = build_parser().parse_args(["orbit", "--config", str(cfg_file)])
        config = assemble_config(args)
        assert config.y_triples == ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),)

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"groups": "G"}))
        args = build_parser().parse_args(["groups", "--config", str(cfg_file)])
        with pytest.raises(ValueError, match="unknown config keys"):
            assemble_config(args)

    @pytest.mark.parametrize(
        "content, key",
        [
            ({"canonical": "false"}, "canonical"),
            ({"specializations": 1.9}, "specializations"),
            ({"seed": True}, "seed"),
        ],
    )
    def test_wrong_value_type_exit_two(self, tmp_path, capsys, content, key):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(content))
        assert main(["groups", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadcert: bad configuration: ") and err.count("\n") == 1
        assert f"{cfg_file}: {key!r} must be" in err

    def test_config_not_an_object_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(["group", "G"]))
        assert main(["groups", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err == f"quadcert: bad configuration: {cfg_file}: config must be a JSON object\n"

    def test_all_subcommand_selects_every_check(self):
        args = build_parser().parse_args(["all"])
        config = assemble_config(args)
        assert config.checks == ("groups", "invariance", "orbit", "freeness")


def quadric_records(system):
    """The custom-quadrics rows of a system, one per term."""
    return [
        [
            {"x_exponents": list(e[:8]), "y_exponents": list(e[8:]), "coefficient": c.to_text()}
            for e, c in q.terms.items()
        ]
        for q in system.quadrics
    ]


def write_custom_group(path, perm, phases, claims=None, name="d"):
    path.write_text(
        json.dumps(
            {
                "name": "probe",
                "generators": [{"name": name, "perm": perm, "phases": phases, "N": 8}],
                "claims": claims or [],
            }
        )
    )
    return str(path)


TAU_RECORD = {"name": "t", **make_tau().to_dict()}
SIGMA_RECORD = {"name": "s", **make_sigma().to_dict()}
G_FILE = {"generators": [TAU_RECORD, SIGMA_RECORD]}
EXPONENT = {"type": "semidirect_exponent", "normal_generator": "t", "conjugator": "s"}


def malformed_input_argv(tmp_path, flag, content):
    """Write content to input.json and return the argv that loads it: a
    custom group for `groups`, custom quadrics for `invariance`."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    if flag == "--custom-group":
        return ["groups", "--group", "custom", "--custom-group", str(path)]
    return ["invariance", "--group", "G", "--custom-quadrics", str(path)]


class TestCustomFiles:
    def test_group_loader_round_trip(self, tmp_path):
        path = write_custom_group(
            tmp_path / "g.json",
            list(range(1, 8)) + [0],
            [0] * 8,
            claims=[{"type": "order", "value": 8}],
        )
        sel = load_custom_group(path)
        assert sel.label == "probe"
        assert sel.group.order == 8
        assert sel.group.names == ("d",)

    def test_spectrum_claim_keys_coerced_to_int(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "generators": [
                        {"perm": [4, 5, 6, 7, 0, 1, 2, 3], "phases": [0] * 8, "N": 8}
                    ],
                    "claims": [{"type": "spectrum", "value": {"1": 1, "2": 1}}],
                }
            )
        )
        sel = load_custom_group(str(path))
        assert sel.claims[0]["value"] == {1: 1, 2: 1}
        report = run(
            VerificationConfig(checks=("groups",), group="custom", custom_group_path=str(path))
        )
        assert report.overall == "pass"

    def test_empty_generators_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": []}))
        with pytest.raises(ValueError, match="no generators"):
            load_custom_group(str(path))

    def test_duplicate_generator_names_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        gen = {"name": "a", "perm": list(range(8)), "phases": [0] * 8, "N": 8}
        path.write_text(json.dumps({"generators": [gen, gen]}))
        with pytest.raises(ValueError, match="duplicate"):
            load_custom_group(str(path))

    def test_quadrics_loader_round_trip(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"quadrics": quadric_records(build_quadrics())}))
        assert load_custom_quadrics(str(path)).quadrics == build_quadrics().quadrics

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            load_custom_group("/nonexistent/g.json")


class TestRunScenarios:
    def test_standard_groups_all_pass(self):
        report = run(VerificationConfig(checks=("groups",), group="all"))
        assert [r.target for r in report.checks] == ["G", "G1", "G2"]
        assert report.overall == "pass"

    def test_invariance_all_presets_once(self):
        report = run(VerificationConfig(checks=("invariance",), group="all"))
        # t is shared between the three groups but certified once
        assert [r.target for r in report.checks] == ["t", "s", "s1", "s2", "s3"]
        assert report.overall == "pass"

    def test_negative_control_generator_fails_with_witness(self, tmp_path):
        path = write_custom_group(
            tmp_path / "g.json", list(range(8)), [0, 0, 0, 0, 4, 4, 4, 4]
        )
        report = run(
            VerificationConfig(
                checks=("invariance",), group="custom", custom_group_path=str(path)
            )
        )
        assert report.overall == "fail"
        assert report.exit_code == 1
        assert "x1*x7" in report.checks[0].witnesses[0]

    @pytest.mark.parametrize(
        "phases, verdict",
        [([(3 - i) % 8 for i in range(8)], "pass"), ([2, 2, 2, 2, 6, 6, 6, 6], "fail")],
    )
    def test_unnormalized_generator_gets_normalized_record(self, tmp_path, phases, verdict):
        # the group holds a generator with phase 0 in slot 0, zeta^(-p0) times
        # the file's matrix; pullbacks through it scale by zeta^(-2 p0), so the
        # record proved for it is the raw matrix's verdict and witness
        normalized = [p - phases[0] for p in phases]
        records = []
        for p in (phases, normalized):
            path = write_custom_group(tmp_path / "g.json", list(range(8)), p)
            config = VerificationConfig(checks=("invariance",), group="custom", custom_group_path=path)
            records.append(run(config).checks[0].to_dict(canonical=True))
        assert records[0] == records[1]
        assert records[0]["verdict"] == verdict
        raw = check_ideal_invariance(MonomialMatrix.diagonal(phases), build_quadrics())
        assert raw.ok == (verdict == "pass")
        assert records[0]["witnesses"] == (
            [] if raw.ok else [f"uncancelled monomial {raw.witness_text()}"]
        )

    def test_screened_out_explicit_triple_is_inconclusive_not_skipped(self):
        config = VerificationConfig(
            checks=("orbit", "freeness"),
            group="G",
            y_triples=((Fraction(1), Fraction(0), Fraction(3)),),
        )
        report = run(config)
        assert report.overall == "inconclusive"
        assert report.exit_code == 2
        orbit_record = next(r for r in report.checks if r.check_id == "orbit")
        assert orbit_record.verdict == "inconclusive"
        assert any("screen" in w for w in orbit_record.witnesses)
        freeness_record = next(r for r in report.checks if r.check_id == "freeness")
        assert freeness_record.verdict == "inconclusive"
        assert any("vanishes" in w for w in freeness_record.witnesses)

    def test_planted_control_freeness_fails_with_verbatim_witness(self, tmp_path):
        group_path = write_custom_group(
            tmp_path / "g.json", list(range(8)), [0, 4, 0, 4, 0, 4, 0, 4], name="t4"
        )
        quadrics_path = tmp_path / "q.json"
        quadrics_path.write_text(json.dumps(quadric_records(planted_control_system())))
        config = VerificationConfig(
            checks=("freeness",),
            group="custom",
            custom_group_path=group_path,
            custom_quadrics_path=str(quadrics_path),
            y_triples=((Fraction(1), Fraction(2), Fraction(3)),),
        )
        report = run(config)
        assert report.overall == "fail"
        assert report.exit_code == 1
        (record,) = report.checks
        assert record.target == "probe[involutions]"
        assert any("fixed point" in w for w in record.witnesses)

    def test_dependency_order_is_enforced(self):
        config = VerificationConfig(
            checks=("freeness", "groups", "invariance"), group="G1", specializations=1
        )
        report = run(config)
        ids = [r.check_id for r in report.checks]
        assert ids == ["groups"] + ["invariance"] * 2 + ["freeness"]

    def test_output_path_writes_report(self, tmp_path):
        out = tmp_path / "r.json"
        run(VerificationConfig(checks=("groups",), group="G", output_path=str(out)))
        assert json.loads(out.read_text())["overall"] == "pass"


class TestGroupsRecords:
    @pytest.mark.parametrize("group, reused", [("all", True), ("G1", False)])
    def test_involution_ambient_is_g(self, monkeypatch, group, reused):
        # the ambient of every localization is G: the G selection's own
        # group when G is selected, else G built once
        ambients = []
        localize = reporting.involution_localization

        def noting(group, words, ambient):
            ambients.append(ambient)
            return localize(group, words, ambient)

        monkeypatch.setattr(reporting, "involution_localization", noting)
        selections = resolve_selections(VerificationConfig(checks=("groups",), group=group))
        records = _groups_records(selections)
        assert [r.verdict for r in records] == ["pass"] * len(selections)
        assert len(ambients) == len(selections)
        assert all(a.element_set == standard_group("G").element_set for a in ambients)
        assert all(a is ambients[0] for a in ambients)
        assert (ambients[0] is selections[0].group) == reused


class TestOrbitRecords:
    def test_shared_certificate_failures_name_own_orbit_points(self, monkeypatch):
        calls = []
        original = variety.verify_odp

        def counting_verify_odp(point, context):
            calls.append(point)
            return original(point, context)

        monkeypatch.setattr(variety, "verify_odp", counting_verify_odp)
        selections = resolve_selections(VerificationConfig(checks=("orbit",), group="all"))
        control = planted_control_system()
        y = (Fraction(1), Fraction(2), Fraction(3))
        records = _orbit_records(selections, control, [(y, ())])
        assert [r.target for r in records] == ["G @ (1,2,3)", "G1 @ (1,2,3)", "G2 @ (1,2,3)"]
        # every group's first point is the base point, off the planted
        # variety; its one certificate serves all three records
        assert len(calls) == 1
        for sel, record in zip(selections, records):
            assert record.verdict == "fail"
            (witness,) = record.witnesses
            named = [
                p
                for p in singular_orbit(control, sel.group, y)
                if witness.startswith(f"point {p.render()}: on_variety=False ")
            ]
            assert len(named) == 1
            assert any(
                not q.evaluate(named[0].coordinates).is_zero() for q in control.specialized(y)
            )


    @pytest.mark.parametrize("check", ["all", "orbit"])
    def test_invariance_proved_once_per_generator(self, monkeypatch, check):
        # the orbit layer reuses the invariance layer's verdicts; run alone,
        # it proves each of the five generator matrices itself
        calls = []
        original = variety.check_ideal_invariance

        def counting(g, system):
            calls.append(g)
            return original(g, system)

        monkeypatch.setattr(variety, "check_ideal_invariance", counting)
        argv = [check, "--group", "all", "--specializations", "3", "--seed", "0"]
        assert main(argv) == 0
        assert len(calls) == len(set(calls)) == 5

    @pytest.fixture
    def odp_calls(self, monkeypatch):
        calls = []
        original = variety.verify_odp

        def counting_verify_odp(point, context):
            calls.append(point)
            return original(point, context)

        monkeypatch.setattr(variety, "verify_odp", counting_verify_odp)
        return calls

    def test_invariant_groups_certify_base_point_once_per_triple(self, odp_calls):
        # every generator of G, G1 and G2 preserves the stock ideal, so each
        # triple's base point certificate transfers to all 64 points of
        # every group
        selections = resolve_selections(VerificationConfig(checks=("orbit",), group="all"))
        system = build_quadrics()
        triples = draw_specializations(3, 0, system, selections[0].group)
        records = _orbit_records(selections, system, [(y, ()) for y in triples])
        assert [r.verdict for r in records] == ["pass"] * 9
        assert odp_calls == [base_point(y) for y in triples]

    def test_non_invariant_generator_certifies_every_orbit_point(self, odp_calls):
        # diag(1,1,1,1,-1,-1,-1,-1) fails invariance (witness x1*x7), so the
        # record falls back to the per-point loop: the base point is an
        # ordinary double point, and the witness is a later orbit point off
        # the variety, which a base-point transfer would miss
        gens = (make_tau(), make_sigma(), MonomialMatrix.diagonal((0, 0, 0, 0, 4, 4, 4, 4)))
        names = ("t", "s", "d")
        probe = GroupSelection("probe", closure(gens, names=names), (), None)
        y = (Fraction(3, 7), Fraction(-5, 11), Fraction(13, 2))
        (record,) = _orbit_records([probe], build_quadrics(), [(y, ())])
        assert record.verdict == "fail"
        assert record.witnesses == (
            "256 distinct orbit points, expected 512",
            "point ([0]@2 : [3/7]@2 : [-5/11]@2 : [13/2]@2 : [0]@2 : [13/2]@2 : [-5/11]@2 "
            ": [3/7]@2): on_variety=False jacobian_rank=-1 hessian_rank=-1",
        )
        assert len(odp_calls) > 1 and odp_calls[0] == base_point(y)

    def test_certificates_kept_per_system(self, odp_calls):
        # at (1,2,3) G's base point is off the planted control and an
        # ordinary double point of the stock pencil: each system certifies
        # it on its own context, and neither reads the other's certificate
        (selection,) = resolve_selections(VerificationConfig(checks=("orbit",), group="G"))
        y = (Fraction(1), Fraction(2), Fraction(3))
        (control,) = _orbit_records([selection], planted_control_system(), [(y, ())])
        (stock,) = _orbit_records([selection], build_quadrics(), [(y, ())])
        assert control.verdict == "fail"
        (witness,) = control.witnesses
        assert "on_variety=False" in witness
        assert stock.verdict == "pass"
        assert odp_calls == [base_point(y)] * 2

    def test_certificates_live_as_long_as_the_system(self, odp_calls):
        # a second orbit run on the same system reads the certificates that
        # its triples' contexts kept, and certifies nothing again
        selections = resolve_selections(VerificationConfig(checks=("orbit",), group="all"))
        system = build_quadrics()
        triples = draw_specializations(2, 0, system, selections[0].group)
        screened = [(y, ()) for y in triples]
        first = _orbit_records(selections, system, screened)
        assert odp_calls == [base_point(y) for y in triples]
        again = _orbit_records(selections, system, screened)
        assert odp_calls == [base_point(y) for y in triples]
        assert [r.witnesses for r in again] == [r.witnesses for r in first]
        assert [r.verdict for r in again] == ["pass"] * 6


class TestFreenessRecords:
    def test_triples_screened_once(self, monkeypatch):
        calls = []
        original = variety.genericity_screen

        def counting_screen(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(reporting, "genericity_screen", counting_screen)
        monkeypatch.setattr(variety, "genericity_screen", counting_screen)
        y_bad = (Fraction(1), Fraction(0), Fraction(3))
        y_good = (Fraction(1), Fraction(2), Fraction(3))
        config = VerificationConfig(checks=("freeness",), group="all", y_triples=(y_bad, y_good))
        report = run(config)
        assert calls == [y_bad, y_good]  # by _resolve_triples only, not once per group
        for record in report.checks:
            assert record.verdict == "inconclusive"
            assert record.witnesses == ("(1,0,3) inconclusive: coordinate vanishes: y=(1,0,3)",)

    @staticmethod
    def record_contexts(monkeypatch) -> list:
        contexts = []
        build = variety.ODPContext.at.__func__
        monkeypatch.setattr(
            variety.ODPContext,
            "at",
            classmethod(lambda cls, system, y: contexts.append(y) or build(cls, system, y)),
        )
        return contexts

    def test_generators_proved_once_and_contexts_built_on_demand(self, monkeypatch):
        # five distinct generators (t is shared) are proved once for all three
        # groups; the pencil is specialized once per triple, by the screen,
        # and G's examinations reuse that context
        proofs = []
        prove = variety.check_ideal_invariance
        monkeypatch.setattr(
            variety, "check_ideal_invariance", lambda g, system: proofs.append(g) or prove(g, system)
        )
        contexts = self.record_contexts(monkeypatch)
        triples = ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(-2), Fraction(5), Fraction(7)))
        report = run(VerificationConfig(checks=("freeness",), group="all", y_triples=triples))
        assert report.overall == "pass"
        assert len(proofs) == len(set(proofs)) == 5
        assert contexts == list(triples)

    def test_one_context_per_triple_across_layers(self, monkeypatch):
        # drawing screens each triple, then the orbit and freeness layers
        # read the same specialized pencil
        triples = draw_specializations(2, 0, build_quadrics(), standard_group("G"))
        contexts = self.record_contexts(monkeypatch)
        config = VerificationConfig(
            checks=("orbit", "freeness"), group="all", specializations=2, seed=0
        )
        assert run(config).overall == "pass"
        assert contexts == triples

    def test_every_generator_proved_before_the_first_group(self, monkeypatch):
        # G's classes are walked with G1's and G2's symmetries too, so the
        # five generators are proved before G's freeness runs
        system = build_quadrics()
        selections = resolve_selections(VerificationConfig(checks=("freeness",), group="all"))
        proved = []
        check = reporting.check_freeness

        def noting(group, system, *args, **kwargs):
            proved.append(len(system._invariance))
            return check(group, system, *args, **kwargs)

        monkeypatch.setattr(reporting, "check_freeness", noting)
        records = _freeness_records(selections, system, [((1, 2, 3), ())], "all")
        assert [r.verdict for r in records] == ["pass"] * 3
        assert proved == [5] * 3

    def test_seed_zero_crossval_work(self, monkeypatch, tmp_path, capsys):
        # the benchmark's crossval run examines 498 components of the 127
        # elements of G u G1 u G2 at 3 triples, decomposes 27 of them and
        # tests 114 restricted systems for emptiness: a lost transfer or a
        # repeated decomposition raises these counts
        counts = dict.fromkeys(
            ("_examine_component", "fixed_locus_components", "projective_zero_set_empty"), 0
        )

        def counting(name, original):
            def count(*args):
                counts[name] += 1
                return original(*args)

            return count

        for name in counts:
            monkeypatch.setattr(variety, name, counting(name, getattr(variety, name)))
        argv = ["freeness", "--group", "all", "--scope", "all", "--specializations", "3"]
        assert main(argv + ["--seed", "0", "--json", str(tmp_path / "r.json")]) == 0
        assert list(counts.values()) == [498, 27, 114]

    def test_inconclusive_dominates_fixed_point_in_triple_order(self, tmp_path):
        group_path = write_custom_group(
            tmp_path / "g.json", list(range(8)), [0, 4, 0, 4, 0, 4, 0, 4], name="t4"
        )
        quadrics_path = tmp_path / "q.json"
        quadrics_path.write_text(json.dumps(quadric_records(planted_control_system())))
        config = VerificationConfig(
            checks=("freeness",),
            group="custom",
            custom_group_path=group_path,
            custom_quadrics_path=str(quadrics_path),
            y_triples=(
                (Fraction(1), Fraction(2), Fraction(3)),
                (Fraction(1), Fraction(0), Fraction(3)),
            ),
        )
        (record,) = run(config).checks
        assert record.verdict == "inconclusive"
        labels = [w.split(")")[0] + ")" for w in record.witnesses]
        assert labels[-1] == "(1,0,3)" and set(labels[:-1]) == {"(1,2,3)"}
        assert any("fixed point" in w for w in record.witnesses[:-1])
        assert record.witnesses[-1].startswith("(1,0,3) inconclusive: ")


class TestDeterminism:
    def test_canonical_reports_byte_identical(self):
        config = VerificationConfig(
            checks=("groups", "invariance", "orbit", "freeness"),
            group="G",
            specializations=1,
            seed=11,
            canonical=True,
        )
        first = render_report(run(config), "json")
        second = render_report(run(config), "json")
        assert first == second
        assert '"timing": 0.0' in first

    def test_different_seed_changes_drawn_triples(self):
        def triples_of(seed):
            config = VerificationConfig(
                checks=("orbit",), group="G", specializations=1, seed=seed, canonical=True
            )
            return [r.target for r in run(config).checks]

        assert triples_of(1) != triples_of(2)

    def test_non_canonical_timing_survives(self):
        report = run(VerificationConfig(checks=("groups",), group="G"))
        assert report.checks[0].to_dict()["timing"] >= 0.0
        assert report.checks[0].to_dict(canonical=True)["timing"] == 0.0


class TestCanonicalDigests:
    # the seed-0 canonical reports every speedup must leave byte-identical
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["all", "--group", "all"],
                "1d51d7be44a8635be36305ba232907cbabeaf3c6c129c401861bf511d59e680c",
            ),
            (
                ["freeness", "--group", "all", "--scope", "all"],
                "a1bab7fec5865f03ad11d2187290b46a04f1e824ca4b28e4438c924729c9d4e5",
            ),
        ],
        ids=["all", "freeness-scope-all"],
    )
    def test_seed_zero_report_digest(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "r.json"
        flags = ["--specializations", "3", "--seed", "0", "--canonical", "--json", str(out)]
        assert main(argv + flags) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_held_out_seed_all_digest(self, tmp_path, capsys):
        # freeness records do not name their triples; the all report does, so
        # a changed seed-1 draw shows here
        out = tmp_path / "r.json"
        argv = ["all", "--group", "all", "--specializations", "3", "--seed", "1"]
        assert main(argv + ["--canonical", "--json", str(out)]) == 0
        assert (
            hashlib.sha256(out.read_bytes()).hexdigest()
            == "85fa25f5e7a658bb77d3c897881ebd407de605208224f03e0601d8bcb8327c1c"
        )

    def test_held_out_seed_freeness_digest(self, tmp_path, capsys):
        # seed 1 is not the benchmark's seed; the conjugacy transfer must
        # leave its full-scope freeness report byte-identical as well
        out = tmp_path / "r.json"
        argv = ["freeness", "--group", "all", "--scope", "all", "--specializations", "3"]
        assert main(argv + ["--seed", "1", "--canonical", "--json", str(out)]) == 0
        assert (
            hashlib.sha256(out.read_bytes()).hexdigest()
            == "36b92f4fa391f84ccaee0fc89b0d318928a01a27311cae150567e9f5ecbe94cf"
        )


# the runs below that certify a failure; every other one passes
CERTIFIED_FAILURES = {
    ("negative-control", "invariance"),
    ("negative-control", "orbit"),  # the flipped base point is off the variety
    ("negative-control", "all"),
    ("planted-control", "orbit"),  # the base point is off the planted variety
    ("planted-control", "freeness"),
    ("planted-control", "all"),
}


class TestExitOne:
    # exit 1 means a certified failure: it happens exactly when some record
    # fails and carries witnesses
    @pytest.mark.parametrize("command", ["groups", "invariance", "orbit", "freeness", "all"])
    @pytest.mark.parametrize("scenario", ["negative-control", "planted-control", "stock"])
    def test_exit_one_iff_failing_record_with_witness(self, tmp_path, capsys, scenario, command):
        if scenario == "negative-control":
            group = write_custom_group(tmp_path / "g.json", list(range(8)), [0, 0, 0, 0, 4, 4, 4, 4])
            flags = ["--group", "custom", "--custom-group", group, "--y", "1,2,3"]
        elif scenario == "planted-control":
            group = write_custom_group(
                tmp_path / "g.json", list(range(8)), [0, 4, 0, 4, 0, 4, 0, 4], name="t4"
            )
            quadrics = tmp_path / "q.json"
            quadrics.write_text(json.dumps(quadric_records(planted_control_system())))
            flags = ["--group", "custom", "--custom-group", group, "--y", "1,2,3"]
            flags += ["--custom-quadrics", str(quadrics)]
        else:
            flags = ["--group", "all", "--specializations", "1", "--seed", "0"]
        out = tmp_path / "r.json"
        code = main([command, *flags, "--json", str(out)])
        records = json.loads(out.read_text())["checks"]
        certified = [r for r in records if r["verdict"] == "fail" and r["witnesses"]]
        assert (code == 1) == bool(certified)
        assert code == (1 if (scenario, command) in CERTIFIED_FAILURES else 0)

    def test_false_claims_fail_with_witnesses(self, tmp_path, capsys):
        # G's generators with four false claims and a localization subgroup
        # that misses involutions of G: each failure is named in claim order
        path = tmp_path / "g.json"
        gens = [{"name": "t", **make_tau().to_dict()}, {"name": "s", **make_sigma().to_dict()}]
        claims = [
            {"type": "relation", "relation": "s t = t"},
            {"type": "spectrum", "value": {"1": 1, "2": 63}},
            {"type": "quotient_order", "subgroup": ["t"], "value": 4},
            {"type": "semidirect_exponent", "normal_generator": "t", "conjugator": "s", "value": 3},
        ]
        path.write_text(json.dumps({"generators": gens, "claims": claims, "localization": ["t"]}))
        out = tmp_path / "r.json"
        argv = ["groups", "--group", "custom", "--custom-group", str(path), "--json", str(out)]
        assert main(argv) == 1
        (record,) = json.loads(out.read_text())["checks"]
        assert record["verdict"] == "fail"
        assert record["witnesses"] == [
            "claim relation failed: sides differ: s t = t",
            "claim spectrum failed: actual spectrum {1: 1, 2: 3, 4: 12, 8: 48}",
            "claim quotient_order failed: actual quotient order 8",
            "claim semidirect_exponent failed: exponent found 1",
            "involution outside subgroup: {'perm': [4, 5, 6, 7, 0, 1, 2, 3], "
            "'phases': [0, 0, 0, 0, 0, 0, 0, 0], 'N': 8}",
        ]


class TestCli:
    def test_groups_subcommand_exit_zero(self, capsys):
        assert main(["groups", "--group", "G"]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out

    def test_text_report_zeroes_timings_when_canonical(self, monkeypatch, capsys):
        # a clock that advances one second per reading gives every record a
        # timing of at least 1 s, which --canonical must print as 0.00s
        clock = iter(range(10**6))
        monkeypatch.setattr(reporting.time, "perf_counter", lambda: float(next(clock)))
        argv = ["freeness", "--group", "G", "--scope", "all", "--specializations", "1"]
        assert main(argv) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("freeness")]
        assert rows and all(line.endswith(" 1.00s") for line in rows)
        assert main(argv + ["--canonical"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("freeness")]
        assert rows and all(line.endswith(" 0.00s") for line in rows)

    def test_negative_control_exit_one(self, tmp_path, capsys):
        path = write_custom_group(
            tmp_path / "g.json", list(range(8)), [0, 0, 0, 0, 4, 4, 4, 4]
        )
        code = main(["invariance", "--group", "custom", "--custom-group", path])
        assert code == 1
        assert "x1*x7" in capsys.readouterr().out

    def test_screened_triple_exit_two(self, capsys):
        assert main(["freeness", "--group", "G", "--y", "1,0,3"]) == 2

    @pytest.mark.parametrize("case", ["orbit-size", "jacobian-rank"])
    def test_screen_reason_exit_two(self, tmp_path, capsys, case):
        # the screen's checks past the coordinate conditions, at the generic
        # triple (1,2,3): each makes the orbit record inconclusive
        if case == "orbit-size":
            # r: x_i -> x_{-i} with all phases 4 fixes the base point
            r = MonomialMatrix(tuple(-i % 8 for i in range(8)), (4,) * 8)
            path = tmp_path / "g.json"
            gens = [{"name": "t", **make_tau().to_dict()}, {"name": "r", **r.to_dict()}]
            path.write_text(json.dumps({"generators": gens}))
            flags = ["--group", "custom", "--custom-group", str(path)]
            reason = "screen: orbit has 8 distinct points, expected 16"
        else:
            # four copies of x1^2: its gradient at the base point spans a line
            row = {"x_exponents": [0, 2] + [0] * 6, "y_exponents": [0] * 3, "coefficient": "[1]@2"}
            path = tmp_path / "q.json"
            path.write_text(json.dumps([[row]] * 4))
            flags = ["--group", "G", "--custom-quadrics", str(path)]
            reason = "screen: jacobian rank at base point is 1, expected 3"
        out = tmp_path / "r.json"
        assert main(["orbit", *flags, "--y", "1,2,3", "--json", str(out)]) == 2
        (record,) = json.loads(out.read_text())["checks"]
        assert record["verdict"] == "inconclusive"
        assert record["witnesses"] == [reason]

    def test_unreadable_custom_file_exit_two(self, capsys):
        code = main(["groups", "--group", "custom", "--custom-group", "/nonexistent.json"])
        assert code == 2
        assert "quadcert" in capsys.readouterr().err

    def test_malformed_y_flag_exit_two(self, capsys):
        assert main(["orbit", "--group", "G", "--y", "1,2"]) == 2
        assert "three" in capsys.readouterr().err

    def test_json_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["groups", "--group", "G2", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["group"] == "G2"

    def test_non_integer_phase_exit_two(self, tmp_path, capsys):
        path = write_custom_group(tmp_path / "g.json", list(range(8)), ["a"] + [0] * 7)
        assert main(["groups", "--group", "custom", "--custom-group", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadcert: ") and err.count("\n") == 1
        assert "phases" in err

    def test_closure_cap_exit_two(self, tmp_path, capsys):
        # a transposition and an 8-cycle generate all 40320 permutations
        path = tmp_path / "g.json"
        gens = [
            {"name": "a", "perm": [1, 0, 2, 3, 4, 5, 6, 7], "phases": [0] * 8, "N": 8},
            {"name": "b", "perm": [1, 2, 3, 4, 5, 6, 7, 0], "phases": [0] * 8, "N": 8},
        ]
        path.write_text(json.dumps({"generators": gens}))
        assert main(["groups", "--group", "custom", "--custom-group", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadcert: ") and err.count("\n") == 1
        assert "cap" in err

    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--custom-group", [{"name": "a"}], "JSON object"),
            ("--custom-group", {"generators": [1]}, "list of objects"),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "spectrum", "value": [1, 2]}],
                },
                "claim value",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "spectrum", "value": {"1": [1]}}],
                },
                "claim value",
            ),
            (
                "--custom-group",
                {"generators": [{"perm": list(range(8)), "phases": [0] * 8}], "localization": 5},
                "localization",
            ),
            ("--custom-quadrics", [[1], [], [], []], "term objects"),
            (
                "--custom-quadrics",
                [[{"x_exponents": 5, "y_exponents": [0, 0, 0], "coefficient": "[1]@2"}]]
                + [[]] * 3,
                "exponents",
            ),
            (
                "--custom-quadrics",
                [[{"y_exponents": [0, 0, 0], "coefficient": "[1]@2"}]] + [[]] * 3,
                "input.json: a term row lacks the key 'x_exponents'",
            ),
            (
                "--custom-quadrics",
                [[{"x_exponents": [2] + [0] * 7, "y_exponents": [0] * 3, "coefficient": "[1/0]@2"}]]
                + [[]] * 3,
                "malformed cyclotomic literal: '[1/0]@2'",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "order"}],
                },
                "input.json: order claim lacks the key 'value'",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "relation", "relation": 5}],
                },
                "input.json: relation claim value of 'relation' must be a string",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "normal_subgroup", "subgroup": 5}],
                },
                "input.json: normal_subgroup claim value of 'subgroup' must be a list of words",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "contained_in", "ambient_generators": [5]}],
                },
                "input.json: unknown claim type 'contained_in'",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": ["x"]}],
                },
                "input.json: unknown claim type ['x']",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "ordr"}],
                },
                "input.json: unknown claim type 'ordr'",
            ),
            (
                "--custom-group",
                {"generators": [{"name": "a", "perm": [1, 0, 3, 2], "phases": [0] * 4, "N": 8}]},
                "input.json: generator 'a' must permute 8 coordinates",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                    "claims": [{"type": "involutions_in_subgroup", "subgroup": ["g0"]}],
                },
                "input.json: unknown claim type 'involutions_in_subgroup'",
            ),
            (
                # words read e as the identity, so "e = identity" would pass
                "--custom-group",
                {
                    "generators": [
                        {"name": "e", "perm": list(range(8)), "phases": [0] * 4 + [4] * 4}
                    ],
                    "claims": [{"type": "relation", "relation": "e = identity"}],
                },
                "input.json: generator name 'e' must match",
            ),
            (
                "--custom-group",
                {"generators": [{"name": "t^2", "perm": list(range(8)), "phases": [0] * 8}]},
                "input.json: generator name 't^2' must match",
            ),
            (
                # tau at N = 16 never equals an element of G, which has N = 8
                "--custom-group",
                {
                    "generators": [
                        {
                            "name": "t",
                            "perm": list(range(8)),
                            "phases": [-2 * i % 16 for i in range(8)],
                            "N": 16,
                        }
                    ],
                    "localization": ["t"],
                },
                "input.json: localization needs phase modulus N = 8, not N = 16",
            ),
            (
                "--custom-group",
                {
                    "generators": [
                        {"name": "a", "perm": list(range(8)), "phases": [0] * 8, "N": 8},
                        {"name": "b", "perm": list(range(8)), "phases": [0] * 8, "N": 16},
                    ]
                },
                "input.json: generators must share size and phase modulus",
            ),
            (
                # str(None) would be a generator called None
                "--custom-group",
                {"generators": [{"name": None, "perm": list(range(8)), "phases": [0] * 8}]},
                "input.json: generator name None must match",
            ),
            (
                "--custom-group",
                {"name": ["x"], "generators": [{"perm": list(range(8)), "phases": [0] * 8}]},
                "input.json: name must be a string",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"name": "t", **make_tau().to_dict()}],
                    "claims": [{"type": "relation", "relation": "x^2 = identity"}],
                },
                "input.json: unknown generator 'x'",
            ),
            (
                "--custom-group",
                {"generators": [{"name": "d", **make_tau().to_dict()}], "localization": ["d^"]},
                "input.json: bad word token 'd^'",
            ),
            (
                "--custom-group",
                {
                    "generators": [{"name": "t", **make_tau().to_dict()}],
                    "claims": [{"type": "relation", "relation": "t^8 = identity = t^16"}],
                },
                "input.json: relation needs exactly one '='",
            ),
            (
                "--custom-group",
                {"generators": [{"perm": list(range(8)), "phases": ["a"] + [0] * 7}]},
                "input.json: monomial matrix needs integer perm, phases and N",
            ),
            (
                "--custom-group",
                {"generators": [{"perm": list(range(8)), "phases": [0] * 8, "N": 3}]},
                "input.json: phase order N=3 not in supported tower",
            ),
            *(
                (
                    "--custom-group",
                    {
                        "generators": [{"perm": list(range(8)), "phases": [0] * 8}],
                        "claims": [claim],
                    },
                    f"input.json: {claim['type']} claim value of 'subgroup' must name"
                    " at least one word",
                )
                for claim in [
                    {"type": "normal_subgroup", "subgroup": []},
                    {"type": "quotient_order", "subgroup": [], "value": 1},
                    {"type": "spectrum_of_subgroup", "subgroup": [], "value": {}},
                ]
            ),
            (
                # an empty list would read as no localization, and the check
                # it asks for would never run
                "--custom-group",
                {"generators": [{"name": "t", **make_tau().to_dict()}], "localization": []},
                "input.json: localization must be a non-empty list of words",
            ),
        ],
    )
    def test_malformed_input_exit_two(self, tmp_path, capsys, flag, content, message):
        assert main(malformed_input_argv(tmp_path, flag, content)) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadcert: ") and err.count("\n") == 1
        assert message in err

    def test_no_usable_triple_exit_two(self, tmp_path, capsys, monkeypatch):
        # four copies of x0^2 leave no generic triple; rejecting every triple
        # in the screen gets there without drawing 500 orbits
        row = {"x_exponents": [2] + [0] * 7, "y_exponents": [0, 0, 0], "coefficient": "[1]@2"}
        path = tmp_path / "q.json"
        path.write_text(json.dumps([[row]] * 4))
        monkeypatch.setattr(variety, "genericity_screen", lambda *args: ("rejected",))
        assert main(["orbit", "--group", "G", "--custom-quadrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadcert: ") and err.count("\n") == 1
        assert "0 of 500 drawn triples passed the screen, 3 needed" in err

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        # a crash must not read as a certified failure (exit 1)
        def crash(config):
            raise RuntimeError("basis grew past MAX_BASIS")

        monkeypatch.setattr(reporting, "run", crash)
        assert main(["groups", "--group", "G"]) == 3
        err = capsys.readouterr().err
        first, rest = err.split("\n", 1)
        assert first == "quadcert: internal error: RuntimeError: basis grew past MAX_BASIS"
        assert rest.startswith("Traceback (most recent call last):")

    def test_internal_key_error_exit_three(self, capsys, monkeypatch):
        # no input path raises KeyError, so one is a crash, not unusable input
        def crash(selections):
            raise KeyError("internal")

        monkeypatch.setattr(reporting, "_groups_records", crash)
        assert main(["groups", "--group", "G"]) == 3
        err = capsys.readouterr().err
        first, rest = err.split("\n", 1)
        assert first == "quadcert: internal error: KeyError: 'internal'"
        assert rest.startswith("Traceback (most recent call last):")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({**G_FILE, "claim": [{**EXPONENT, "value": 3}]}, "unknown top-level key 'claim'"),
            ({**G_FILE, "localisation": ["zz"]}, "unknown top-level key 'localisation'"),
            (
                {**G_FILE, "claims": [{**EXPONENT, "valu": 3}]},
                "semidirect_exponent claim has the unknown key 'valu'",
            ),
            (
                {"generators": [TAU_RECORD, {**SIGMA_RECORD, "phase": [0] * 8}]},
                "generators[1] has the unknown key 'phase'",
            ),
        ],
    )
    def test_unknown_key_exit_two(self, tmp_path, capsys, doc, message):
        # each file exited 0 with `groups custom pass`, its misspelled key
        # unread: the exponent claim it drops fails (t^s = t, not t^3), and
        # "zz" is no word
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["groups", "--group", "custom", "--custom-group", str(path)]) == 2
        assert capsys.readouterr().err == f"quadcert: {path}: {message}\n"

    def test_denominator_divisible_by_prime_takes_the_exact_path(self, tmp_path, monkeypatch):
        # at y1 = 1/PRIME the coefficients y1*y3 and y1^2 + y3^2 have PRIME in
        # their denominators, so the triple keeps no residues: every component
        # takes the exact path, and the report is the one with every residue
        # unknown, byte for byte
        prime = groebner.PRIME
        assert ODPContext.at(build_quadrics(), (Fraction(1, prime), 2, 3)).residues is None
        argv = ["freeness", "--group", "G", "--scope", "all", "--y", f"1/{prime},2,3", "--canonical"]
        ranks = []
        rank = ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: ranks.append(m) or rank(m))
        assert main([*argv, "--json", str(tmp_path / "first.json")]) == 0
        assert any(m.cols == 56 for m in ranks)  # a 4-dimensional eigenspace, ranked exactly
        for module in (variety, groebner):
            monkeypatch.setattr(module, "_residue", lambda c: None)
        assert main([*argv, "--json", str(tmp_path / "exact.json")]) == 0
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "exact.json").read_bytes()

    def test_unknown_word_exit_two_under_freeness(self, tmp_path, capsys):
        # words are checked when the file loads, not only by `groups`
        path = tmp_path / "g.json"
        gens = [{"name": "t", **make_tau().to_dict()}]
        claims = [{"type": "relation", "relation": "x^2 = identity"}]
        path.write_text(json.dumps({"generators": gens, "claims": claims}))
        argv = ["freeness", "--group", "custom", "--custom-group", str(path), "--y", "1,2,3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"quadcert: {path}: unknown generator 'x'\n"

    def test_scope_all_non_two_group_exit_two(self, tmp_path, capsys):
        # default involutions scope is refused for a 3-cycle; diagnostic, not traceback
        path = write_custom_group(
            tmp_path / "g.json", [1, 2, 0, 3, 4, 5, 6, 7], [0] * 8
        )
        code = main(
            ["freeness", "--group", "custom", "--custom-group", path, "--y", "1,2,3"]
        )
        assert code == 2
        assert "2-group" in capsys.readouterr().err


# -- malformed input files, fuzzed --------------------------------------------

IDENTITY_GENERATOR = {"perm": list(range(8)), "phases": [0] * 8}
SWAP = {"perm": [1, 0, 2, 3, 4, 5, 6, 7], "phases": [0, 1, 0, 0, 0, 0, 0, 0], "N": 4}
ONE_TERM = {"x_exponents": [2] + [0] * 7, "y_exponents": [0, 0, 0], "coefficient": "[1]@2"}

# JSON values of the wrong type for a field that takes a list, an integer or
# an object
not_a_list = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), min_size=1, max_size=2),
)
not_an_int = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4), st.just([1]),
    st.just({"1": 1}),
)
not_a_string = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.just(["x"]),
    st.just({"x": 1}),
)
not_an_object = st.one_of(not_a_list.filter(lambda v: not isinstance(v, dict)), st.just([1]))
bad_int_list = st.one_of(
    not_a_list,
    st.lists(not_an_int, min_size=1, max_size=8),
    # a length no field takes: perms and phases have 8 entries, x-exponents
    # 8 and y-exponents 3
    st.lists(st.integers(0, 7), min_size=4, max_size=7),
    # right shape, but booleans: [1, 0, 2, ..., 7] as a perm, x1^2 and y^0
    # as exponents
    st.sampled_from([[True, False, *range(2, 8)], [True, True] + [False] * 6, [False] * 3]),
)
bad_order = st.one_of(not_an_int, st.integers().filter(lambda n: n not in SUPPORTED_ORDERS))
bad_literal = st.one_of(
    st.sampled_from(
        ["", "[1, 2]", "1@8", "[1]@3", "[1, x]@4", "[1/0]@2", "[1]@128", "[1, 2, 3]@4", "[]@2"]
    ),
    st.text(max_size=6).map(lambda t: "x" + t),  # never opens with "["
    st.integers(),
)


@st.composite
def malformed_groups(draw):
    """A custom group file with exactly one defect."""
    defect = draw(st.integers(0, 10))
    doc = {"generators": [dict(IDENTITY_GENERATOR)]}
    if defect == 0:
        return draw(not_an_object)
    if defect == 1:
        doc["generators"] = draw(st.one_of(st.just([]), st.just({}), not_a_list.filter(bool)))
    elif defect == 2:
        doc["generators"] = [draw(not_an_object)]
    elif defect == 3:
        gen = doc["generators"][0] = dict(draw(st.sampled_from([IDENTITY_GENERATOR, SWAP])))
        field = draw(st.sampled_from(["perm", "phases", "N"]))
        gen[field] = draw(bad_order if field == "N" else bad_int_list)
    elif defect == 4:
        del doc["generators"][0][draw(st.sampled_from(["perm", "phases"]))]
    elif defect == 5:
        doc["claims"] = draw(st.one_of(not_a_list, st.lists(not_an_object, min_size=1)))
    elif defect == 6:
        kind = draw(st.one_of(st.text(max_size=8), not_an_int))
        assume(not (isinstance(kind, str) and kind in CLAIM_KEYS))
        doc["claims"] = [{"type": kind}]
    elif defect == 7:
        kind = draw(st.sampled_from(sorted(CLAIM_KEYS)))
        claim = {"type": kind, **{key: None for key in CLAIM_KEYS[kind]}}
        del claim[draw(st.sampled_from(sorted(CLAIM_KEYS[kind])))]
        doc["claims"] = [claim]
    elif defect == 8:
        doc["localization"] = draw(
            st.one_of(st.just([1]), st.just([None]), not_a_list.filter(lambda v: v is not None))
        )
    elif defect == 9:
        # the group's name or its generator's
        draw(st.sampled_from([doc, doc["generators"][0]]))["name"] = draw(not_a_string)
    else:
        # a word with an unknown generator or a malformed token, wherever
        # words go; the one generator is g0
        word = draw(st.sampled_from(["x", "g0 x^2", "g0^", "g0^y", "2", "g0*g0", "g0 = g0"]))
        place = draw(st.sampled_from(["relation", "subgroup", "normal_generator", "conjugator",
                                      "localization"]))
        if place == "relation":
            doc["claims"] = [{"type": "relation", "relation": f"{word} = identity"}]
        elif place == "subgroup":
            doc["claims"] = [{"type": "normal_subgroup", "subgroup": [word]}]
        elif place == "localization":
            doc["localization"] = [word]
        else:
            claim = {"type": "semidirect_exponent", "normal_generator": "g0", "conjugator": "g0"}
            doc["claims"] = [{**claim, place: word}]
    return doc


@st.composite
def malformed_quadrics(draw):
    """A custom quadrics file with exactly one defect."""
    defect = draw(st.integers(0, 5))
    rows = [dict(ONE_TERM)]
    if defect == 0:
        return draw(st.one_of(not_a_list, st.builds(lambda v: {"quadrics": v}, not_a_list)))
    if defect == 1:
        return [[]] * draw(st.sampled_from([0, 1, 3, 5]))
    if defect == 2:
        return [draw(st.one_of(not_a_list, st.lists(not_an_object, min_size=1)))] + [[]] * 3
    if defect == 3:
        del rows[0][draw(st.sampled_from(sorted(ONE_TERM)))]
    elif defect == 4:
        rows[0][draw(st.sampled_from(["x_exponents", "y_exponents"]))] = draw(bad_int_list)
    else:
        rows[0]["coefficient"] = draw(bad_literal)
    return [rows] + [[]] * 3


@given(st.one_of(
    st.tuples(st.just("--custom-group"), malformed_groups()),
    st.tuples(st.just("--custom-quadrics"), malformed_quadrics()),
))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_input_fuzz_exit_two(tmp_path, capsys, case):
    flag, content = case
    code = main(malformed_input_argv(tmp_path, flag, content))
    err = capsys.readouterr().err
    assert code == 2, (content, err)
    assert err.startswith("quadcert: ") and err.count("\n") == 1, err
