//! Checker coverage for the richer guard shapes (`In`, `Or`, `Implies`,
//! nested `Not`) and disjunctive initial states — the expression forms
//! the threat builder and property authors may emit.

use procheck_smv::checker::{
    check_bounded, CheckError, CheckStats, Property, Verdict, DEFAULT_STATE_LIMIT,
};
use procheck_smv::model::Model as SmvModel;

/// `check_bounded` at the default limit — every model here is small.
fn check(m: &SmvModel, p: &Property) -> Result<Verdict, CheckError> {
    check_bounded(m, p, DEFAULT_STATE_LIMIT, &mut CheckStats::default())
}

/// `check` with the error path unwrapped — every model here is valid.
fn chk(m: &SmvModel, p: &Property) -> Verdict {
    check(m, p).expect("test model valid")
}

/// The retired panicking convenience path now surfaces validation
/// problems as typed errors.
#[test]
fn check_returns_typed_error_for_invalid_model() {
    let mut m = SmvModel::new("bad");
    m.declare_var("x", &["0"], &["0"]);
    let err = check(&m, &Property::reachable("oops", Expr::var_eq("y", "1")))
        .expect_err("undeclared variable");
    assert!(matches!(err, CheckError::InvalidModel(_)));
}
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};

fn counter() -> Model {
    let mut m = Model::new("counter");
    m.declare_var("x", &["0", "1", "2", "3"], &["0", "1"]);
    for (a, b) in [("0", "1"), ("1", "2"), ("2", "3")] {
        m.add_command(GuardedCmd::new(format!("inc{a}"), Expr::var_eq("x", a)).set("x", b));
    }
    m
}

#[test]
fn in_guard_and_in_property() {
    let mut m = counter();
    // A reset that fires only from the upper half of the domain.
    m.add_command(GuardedCmd::new("reset", Expr::var_in("x", ["2", "3"])).set("x", "0"));
    let v = chk(
        &m,
        &Property::invariant("bounded", Expr::var_in("x", ["0", "1", "2", "3"])),
    );
    assert_eq!(v, Verdict::Holds);
    let v2 = chk(
        &m,
        &Property::reachable("resettable", Expr::var_eq("x", "0")),
    );
    assert!(matches!(v2, Verdict::Reachable(_)));
}

#[test]
fn or_and_implies_properties() {
    let m = counter();
    let v = chk(
        &m,
        &Property::invariant(
            "or_form",
            Expr::or([Expr::var_ne("x", "3"), Expr::var_eq("x", "3")]),
        ),
    );
    assert_eq!(v, Verdict::Holds);
    let v2 = chk(
        &m,
        &Property::invariant(
            "implies_form",
            Expr::implies(Expr::var_eq("x", "3"), Expr::var_in("x", ["3"])),
        ),
    );
    assert_eq!(v2, Verdict::Holds);
    // Out-of-domain value in a property is a validation error, not a
    // silent false.
    let err = check_bounded(
        &m,
        &Property::invariant("bad", Expr::var_eq("x", "9999")),
        10_000,
        &mut CheckStats::default(),
    );
    assert!(err.is_err());
}

#[test]
fn nested_not_evaluates() {
    let m = counter();
    let v = chk(
        &m,
        &Property::invariant(
            "double_neg",
            Expr::not(Expr::not(Expr::var_in("x", ["0", "1", "2", "3"]))),
        ),
    );
    assert_eq!(v, Verdict::Holds);
}

#[test]
fn disjunctive_initial_states_all_explored() {
    let m = counter();
    // From init {0,1}: both 0-origin and 1-origin paths exist; a witness
    // for x=1 must be length zero (initial state), not via inc0.
    let Verdict::Reachable(ce) = chk(&m, &Property::reachable("one", Expr::var_eq("x", "1")))
    else {
        panic!("x=1 reachable");
    };
    assert_eq!(ce.steps.len(), 1, "x=1 is an initial state: {ce}");
    assert_eq!(ce.steps[0].label, "init");
}

#[test]
fn implies_in_guard() {
    let mut m = Model::new("g");
    m.declare_var("a", &["0", "1"], &["0"]);
    m.declare_var("b", &["0", "1"], &["0"]);
    // Fires when (a=1 → b=1); initially a=0 so the implication is true.
    m.add_command(
        GuardedCmd::new(
            "step",
            Expr::implies(Expr::var_eq("a", "1"), Expr::var_eq("b", "1")),
        )
        .set("a", "1"),
    );
    let v = chk(&m, &Property::reachable("a1", Expr::var_eq("a", "1")));
    assert!(matches!(v, Verdict::Reachable(_)));
    // After a=1 (b still 0) the guard is false: a cannot change further,
    // and b=1 is unreachable.
    let v2 = chk(&m, &Property::reachable("b1", Expr::var_eq("b", "1")));
    assert_eq!(v2, Verdict::Unreachable);
}
