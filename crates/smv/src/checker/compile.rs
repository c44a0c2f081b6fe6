//! Compilation: a model, and each property asked of it, with every
//! variable, value and command name resolved to a dense index once, so
//! exploration and queries never hash a string.

use super::{CheckError, Property};
use crate::expr::Expr;
use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::model::Model;
use crate::reach::STUTTER_CMD;
use procheck_ident::{CmdId, CmdIdSet, Sym, ValId, VarId};
use std::collections::BTreeMap;

/// Cap on up-front visited-table/queue allocation. Exact domain-product
/// bounds below this are allocated exactly; anything larger starts here
/// and grows, so a sliced model with a huge *declared* product but a
/// small *reachable* set does not pay for the difference.
const PRESIZE_CAP: usize = 1 << 16;

pub(super) type Value = crate::reach::Value;
pub(super) type State = Vec<Value>;

/// Index-resolved expression: variable names and symbolic values are
/// replaced by typed dense indices ([`VarId`], [`ValId`]), so evaluation
/// is array indexing with no string hashing on the hot path. Public so
/// alternative backends (the BMC engine in `procheck-symbolic`) can
/// translate the same compiled form instead of re-resolving names.
#[derive(Debug, Clone)]
pub enum CExpr {
    True,
    False,
    Eq(VarId, ValId),
    Ne(VarId, ValId),
    In(VarId, Vec<ValId>),
    And(Vec<CExpr>),
    Or(Vec<CExpr>),
    Not(Box<CExpr>),
}

impl CExpr {
    /// Evaluates the expression in a dense state vector.
    pub fn eval(&self, s: &[Value]) -> bool {
        match self {
            CExpr::True => true,
            CExpr::False => false,
            CExpr::Eq(v, x) => s[v.index()] == x.0,
            CExpr::Ne(v, x) => s[v.index()] != x.0,
            CExpr::In(v, xs) => xs.contains(&ValId(s[v.index()])),
            CExpr::And(xs) => xs.iter().all(|x| x.eval(s)),
            CExpr::Or(xs) => xs.iter().any(|x| x.eval(s)),
            CExpr::Not(x) => !x.eval(s),
        }
    }
}

/// A command with indices resolved.
#[derive(Debug)]
pub struct CCmd {
    /// The command's label (unique in generated threat models).
    pub label: Sym,
    /// The compiled guard expression.
    pub guard: CExpr,
    /// Variable assignments applied when the command fires; variables
    /// not mentioned keep their value.
    pub updates: Vec<(VarId, ValId)>,
}

/// A compiled variable: interned name and domain for trace resolution,
/// initial values as dense indices for exploration.
#[derive(Debug)]
pub struct CVar {
    /// The variable's interned name.
    pub name: Sym,
    /// The declared domain, in [`ValId`] order.
    pub domain: Vec<Sym>,
    /// The initial values (one state per combination across variables).
    pub init: Vec<ValId>,
}

/// A model with every name resolved to a dense index, built **once** per
/// model and reused by every query and CEGAR iteration on it. Owns its
/// tables (no borrow of the source [`Model`]), so caches can hold it next
/// to the model and the reachability graph.
#[derive(Debug)]
pub struct CompiledModel {
    pub(crate) vars: Vec<CVar>,
    pub(crate) var_index: FxHashMap<Sym, VarId>,
    pub(crate) val_index: Vec<FxHashMap<Sym, ValId>>,
    pub(crate) commands: Vec<CCmd>,
    pub(crate) fairness: Vec<CExpr>,
}

/// A property with its expressions compiled against one
/// [`CompiledModel`]'s tables. Compile once, query any number of times —
/// including across CEGAR iterations — with zero further string
/// resolution.
#[derive(Debug)]
pub struct CompiledProperty {
    pub(crate) kind: CProp,
}

impl CompiledProperty {
    /// The compiled property kind, for backends translating the same
    /// compiled form the explicit engine queries.
    pub fn kind(&self) -> &CProp {
        &self.kind
    }
}

/// The compiled shape of a [`Property`]: the same four temporal
/// patterns, with every expression index-resolved.
#[derive(Debug)]
pub enum CProp {
    Invariant {
        holds: CExpr,
    },
    Reachable {
        goal: CExpr,
    },
    Response {
        trigger: CExpr,
        response: CExpr,
    },
    Precedence {
        event: CExpr,
        requires_before: CExpr,
    },
}

impl CompiledModel {
    /// Validates and compiles a model.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::InvalidModel`] with the model's validation
    /// problems (same strings, same order as [`Model::validate`]).
    pub fn new(model: &Model) -> Result<Self, CheckError> {
        let problems = model.validate();
        if !problems.is_empty() {
            return Err(CheckError::InvalidModel(problems));
        }
        let mut var_index =
            FxHashMap::with_capacity_and_hasher(model.vars().len(), FxBuildHasher::default());
        let mut val_index = Vec::with_capacity(model.vars().len());
        let mut vars = Vec::with_capacity(model.vars().len());
        for (i, v) in model.vars().iter().enumerate() {
            var_index.insert(v.name, VarId::new(i));
            let mut m =
                FxHashMap::with_capacity_and_hasher(v.domain.len(), FxBuildHasher::default());
            for (j, &value) in v.domain.iter().enumerate() {
                m.insert(value, ValId::new(j));
            }
            vars.push(CVar {
                name: v.name,
                domain: v.domain.clone(),
                init: v.init.iter().map(|s| m[s]).collect(),
            });
            val_index.push(m);
        }
        let mut c = CompiledModel {
            vars,
            var_index,
            val_index,
            commands: Vec::new(),
            fairness: Vec::new(),
        };
        c.commands = model
            .commands()
            .iter()
            .map(|cmd| CCmd {
                label: cmd.label,
                guard: c.compile(&cmd.guard),
                updates: cmd
                    .updates
                    .iter()
                    .map(|(var, value)| {
                        let vi = c.var_index[var];
                        (vi, c.val_index[vi.index()][value])
                    })
                    .collect(),
            })
            .collect();
        c.fairness = model.fairness().iter().map(|f| c.compile(f)).collect();
        Ok(c)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The compiled variables, in [`VarId`] order.
    pub fn vars(&self) -> &[CVar] {
        &self.vars
    }

    /// The compiled commands, in [`CmdId`] order.
    pub fn commands(&self) -> &[CCmd] {
        &self.commands
    }

    /// The compiled fairness constraints (`JUSTICE`-style: each must
    /// hold infinitely often along any counted infinite behaviour).
    pub fn fairness_exprs(&self) -> &[CExpr] {
        &self.fairness
    }

    /// Number of commands; [`CmdId`]s index `0..command_count()` in the
    /// source model's declaration order.
    pub fn command_count(&self) -> usize {
        self.commands.len()
    }

    /// The label of a command.
    pub fn command_label(&self, id: CmdId) -> Sym {
        self.commands[id.index()].label
    }

    /// All command ids carrying the given label (labels are unique in
    /// generated threat models, but the engine does not assume it).
    pub fn commands_labeled(&self, label: Sym) -> impl Iterator<Item = CmdId> + '_ {
        self.commands
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.label == label)
            .map(|(i, _)| CmdId::new(i))
    }

    /// An empty exclusion mask sized for this model's commands.
    pub fn exclusion_set(&self) -> CmdIdSet {
        CmdIdSet::with_capacity(self.commands.len())
    }

    /// Validates a property's expressions against the compiled domains
    /// and compiles them for querying.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::InvalidModel`] listing the property's
    /// vocabulary problems (same strings and order as the name-based
    /// checker produced).
    pub fn compile_property(&self, property: &Property) -> Result<CompiledProperty, CheckError> {
        let kind = match property {
            Property::Invariant { holds, .. } => CProp::Invariant {
                holds: self.compile_checked(holds)?,
            },
            Property::Reachable { goal, .. } => CProp::Reachable {
                goal: self.compile_checked(goal)?,
            },
            Property::Response {
                trigger, response, ..
            } => CProp::Response {
                trigger: self.compile_checked(trigger)?,
                response: self.compile_checked(response)?,
            },
            Property::Precedence {
                event,
                requires_before,
                ..
            } => CProp::Precedence {
                event: self.compile_checked(event)?,
                requires_before: self.compile_checked(requires_before)?,
            },
        };
        Ok(CompiledProperty { kind })
    }

    /// Compiles an expression against the declared domains. The model has
    /// already been validated, so lookups cannot fail.
    pub(super) fn compile(&self, e: &Expr) -> CExpr {
        match e {
            Expr::True => CExpr::True,
            Expr::False => CExpr::False,
            Expr::Eq(v, x) => {
                let vi = self.var_index[v];
                CExpr::Eq(vi, self.val_index[vi.index()][x])
            }
            Expr::Ne(v, x) => {
                let vi = self.var_index[v];
                CExpr::Ne(vi, self.val_index[vi.index()][x])
            }
            Expr::In(v, xs) => {
                let vi = self.var_index[v];
                CExpr::In(
                    vi,
                    xs.iter().map(|x| self.val_index[vi.index()][x]).collect(),
                )
            }
            Expr::And(xs) => CExpr::And(xs.iter().map(|x| self.compile(x)).collect()),
            Expr::Or(xs) => CExpr::Or(xs.iter().map(|x| self.compile(x)).collect()),
            Expr::Not(x) => CExpr::Not(Box::new(self.compile(x))),
            Expr::Implies(a, b) => {
                CExpr::Or(vec![CExpr::Not(Box::new(self.compile(a))), self.compile(b)])
            }
        }
    }

    /// Capacity hint for exploration: the exact product of declared
    /// domain sizes (×2 for the monitor flag) when that is small, else
    /// [`PRESIZE_CAP`], never beyond the state limit.
    pub(super) fn capacity_hint(&self, limit: usize) -> usize {
        let mut bound = 2usize;
        for v in &self.vars {
            bound = bound.saturating_mul(v.domain.len().max(1));
            if bound >= PRESIZE_CAP {
                return PRESIZE_CAP.min(limit);
            }
        }
        bound.min(limit)
    }

    /// Every initial state (the cross-product of per-variable initial
    /// value lists), as dense value vectors in exploration order.
    pub fn initial_states(&self) -> Vec<State> {
        let mut states: Vec<State> = vec![Vec::new()];
        for v in &self.vars {
            let mut next = Vec::with_capacity(states.len() * v.init.len());
            for s in &states {
                for init in &v.init {
                    let mut s2 = s.clone();
                    s2.push(init.0);
                    next.push(s2);
                }
            }
            states = next;
        }
        states
    }

    /// Validates that a property expression only references declared
    /// variables and in-domain values; compiles it on success. The
    /// problem strings match [`Model::validate_property_expr`] exactly.
    fn compile_checked(&self, e: &Expr) -> Result<CExpr, CheckError> {
        let mut problems = Vec::new();
        self.validate_expr(e, &mut problems);
        if !problems.is_empty() {
            return Err(CheckError::InvalidModel(problems));
        }
        Ok(self.compile(e))
    }

    fn validate_expr(&self, e: &Expr, problems: &mut Vec<String>) {
        let ctx = "property";
        match e {
            Expr::True | Expr::False => {}
            Expr::Eq(v, x) | Expr::Ne(v, x) => match self.var_index.get(v) {
                None => problems.push(format!("`{ctx}` references undeclared `{v}`")),
                Some(vi) if !self.val_index[vi.index()].contains_key(x) => {
                    problems.push(format!("`{ctx}` compares `{v}` to out-of-domain `{x}`"))
                }
                _ => {}
            },
            Expr::In(v, xs) => match self.var_index.get(v) {
                None => problems.push(format!("`{ctx}` references undeclared `{v}`")),
                Some(vi) => {
                    for x in xs {
                        if !self.val_index[vi.index()].contains_key(x) {
                            problems
                                .push(format!("`{ctx}` tests `{v}` against out-of-domain `{x}`"));
                        }
                    }
                }
            },
            Expr::And(xs) | Expr::Or(xs) => {
                for x in xs {
                    self.validate_expr(x, problems);
                }
            }
            Expr::Not(x) => self.validate_expr(x, problems),
            Expr::Implies(a, b) => {
                self.validate_expr(a, problems);
                self.validate_expr(b, problems);
            }
        }
    }

    /// The trace label for a fired command id (`STUTTER_CMD` →
    /// `"stutter"`).
    pub fn label_of(&self, cmd: u32) -> &'static str {
        if cmd == STUTTER_CMD {
            "stutter"
        } else {
            self.commands[cmd as usize].label.as_str()
        }
    }

    /// Renders a dense state vector as the name→value assignment traces
    /// carry.
    pub fn assignment(&self, s: &[Value]) -> BTreeMap<String, String> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    v.name.as_str().to_string(),
                    v.domain[s[i] as usize].as_str().to_string(),
                )
            })
            .collect()
    }
}
