//! Building `IMP^μ`: the threat-instrumented guarded-command model.

use crate::config::ThreatConfig;
use crate::labels::{adv_label, AdvKind, CommandInfo, Participant};
use procheck_fsm::{Fsm, Transition};
use procheck_ident::Sym;
use procheck_smv::expr::Expr;
use procheck_smv::model::{GuardedCmd, Model};
use std::collections::{BTreeMap, BTreeSet};

/// Channel-provenance values for the downlink channel.
pub const DL_METAS: &[&str] = &[
    "none",
    "legit",
    "replay_last",
    "replay_old",
    "replay_old_unconsumed",
    "adv_plain",
    "adv_bad_mac",
    "adv_forged",
];

/// Channel-provenance values for the uplink channel.
pub const UL_METAS: &[&str] = &["none", "legit", "adv_plain"];

/// The standard NAS message names (vocabulary shared with the extractor;
/// events outside this set are internal triggers).
pub const MESSAGE_NAMES: &[&str] = &[
    "attach_request",
    "attach_accept",
    "attach_complete",
    "attach_reject",
    "identity_request",
    "identity_response",
    "authentication_request",
    "authentication_response",
    "authentication_reject",
    "authentication_failure",
    "security_mode_command",
    "security_mode_complete",
    "security_mode_reject",
    "detach_request",
    "detach_accept",
    "guti_reallocation_command",
    "guti_reallocation_complete",
    "tracking_area_update_request",
    "tracking_area_update_accept",
    "tracking_area_update_reject",
    "service_request",
    "service_reject",
    "paging",
    "emm_information",
];

fn is_message(name: &str) -> bool {
    MESSAGE_NAMES.contains(&name)
}

fn preds_of(t: &Transition) -> BTreeMap<&str, &str> {
    t.condition
        .iter()
        .filter_map(|c| c.value().map(|v| (c.name(), v)))
        .collect()
}

fn event_of(t: &Transition) -> Option<&str> {
    let mut events = t.trigger_events();
    let first = events.next()?;
    if events.next().is_some() {
        return None; // multiple events: not a well-formed extracted transition
    }
    Some(first.name())
}

fn action_of(t: &Transition) -> Option<&str> {
    t.action
        .iter()
        .find(|a| !a.is_null() && is_message(a.as_str()))
        .map(|a| a.as_str())
}

/// Downlink provenances compatible with a transition's extracted check
/// predicates — the Dolev–Yao semantics of each check (see crate docs).
fn compatible_dl_metas(preds: &BTreeMap<&str, &str>, cfg: &ThreatConfig) -> Vec<&'static str> {
    let mut metas: BTreeSet<&'static str> = [
        "legit",
        "replay_last",
        "replay_old",
        "replay_old_unconsumed",
        "adv_plain",
        "adv_bad_mac",
        "adv_forged",
    ]
    .into_iter()
    .collect();
    let retain = |metas: &mut BTreeSet<&'static str>, keep: &[&'static str]| {
        metas.retain(|m| keep.contains(m));
    };
    let protected = preds.contains_key("mac_valid");
    let aka = preds.contains_key("aka_mac_valid");
    if !protected && !aka {
        // Plain-delivery handling: anyone can fabricate plaintext.
        retain(&mut metas, &["legit", "adv_plain"]);
    }
    match preds.get("mac_valid") {
        Some(&"true") => retain(
            &mut metas,
            &["legit", "replay_last", "replay_old", "adv_forged"],
        ),
        Some(_) => retain(&mut metas, &["adv_bad_mac"]),
        None => {}
    }
    match preds.get("count_delta") {
        Some(&"fresh") => retain(&mut metas, &["legit", "adv_forged"]),
        Some(&"equal") => retain(&mut metas, &["replay_last"]),
        Some(&"stale") => retain(&mut metas, &["replay_old"]),
        _ => {}
    }
    match preds.get("aka_mac_valid") {
        Some(&"true") => retain(
            &mut metas,
            &["legit", "replay_old", "replay_old_unconsumed", "adv_forged"],
        ),
        Some(_) => retain(&mut metas, &["adv_plain"]),
        None => {}
    }
    match preds.get("sqn_ok") {
        Some(&"true") => {
            let mut keep: Vec<&'static str> = vec!["legit", "adv_forged"];
            if cfg.stale_unconsumed_sqn_accepted {
                keep.push("replay_old_unconsumed");
            }
            retain(&mut metas, &keep);
        }
        Some(_) => {
            let mut keep: Vec<&'static str> = vec!["replay_old"];
            if !cfg.stale_unconsumed_sqn_accepted {
                keep.push("replay_old_unconsumed");
            }
            retain(&mut metas, &keep);
        }
        None => {}
    }
    if preds.get("plain_ok") == Some(&"false") {
        retain(&mut metas, &["adv_plain"]);
    }
    metas.into_iter().collect()
}

/// Uplink provenances compatible with an MME transition's predicates.
fn compatible_ul_metas(
    preds: &BTreeMap<&str, &str>,
    event: &str,
    cfg: &ThreatConfig,
) -> Vec<&'static str> {
    // RES and AUTS are keyed: a valid value proves UE origin.
    if preds.get("res_ok") == Some(&"true") || preds.get("auts_mac_ok") == Some(&"true") {
        return vec!["legit"];
    }
    let mut metas = vec!["legit"];
    if cfg.plain_injectable_ul.contains(event) {
        metas.push("adv_plain");
    }
    metas
}

/// Accepting-authentication marker: does this UE transition (re)derive
/// session keys from the challenge it consumed?
fn regenerates_keys(preds: &BTreeMap<&str, &str>) -> bool {
    preds.get("sqn_ok") == Some(&"true") || preds.get("sqn_check_bypassed") == Some(&"true")
}

/// Builds the threat-instrumented model `IMP^μ` from the two extracted
/// FSMs.
///
/// # Panics
///
/// Panics if either FSM has no initial state — extraction always sets
/// one, so this indicates a pipeline bug.
pub fn build_threat_model(ue: &Fsm, mme: &Fsm, cfg: &ThreatConfig) -> Model {
    let mut model = Model::new("imp_mu");
    let mut uniq = 0usize;

    // ----- vocabulary ----------------------------------------------------
    // The FSM layer already interned every state / event / action label;
    // composing over `Sym` sets re-uses those handles — no string clones,
    // and `Sym: Ord` keeps the historical lexicographic domain order.
    let ue_states: Vec<Sym> = ue.states().map(|s| s.id().sym()).collect();
    let mme_states: Vec<Sym> = mme.states().map(|s| s.id().sym()).collect();

    let mut dl_messages: BTreeSet<Sym> = BTreeSet::new();
    let mut ul_messages: BTreeSet<Sym> = BTreeSet::new();
    let mut ue_events: BTreeSet<Sym> = BTreeSet::new();
    let mut mme_events: BTreeSet<Sym> = BTreeSet::new();
    let mut ue_actions: BTreeSet<Sym> = BTreeSet::new();
    let mut mme_actions: BTreeSet<Sym> = BTreeSet::new();
    for t in ue.transitions() {
        if let Some(e) = event_of(t) {
            let e_sym = Sym::intern(e);
            ue_events.insert(e_sym);
            if is_message(e) {
                dl_messages.insert(e_sym);
            }
        }
        if let Some(a) = action_of(t) {
            let a_sym = Sym::intern(a);
            ue_actions.insert(a_sym);
            ul_messages.insert(a_sym);
        }
    }
    for t in mme.transitions() {
        if let Some(e) = event_of(t) {
            let e_sym = Sym::intern(e);
            mme_events.insert(e_sym);
            if is_message(e) {
                ul_messages.insert(e_sym);
            }
        }
        if let Some(a) = action_of(t) {
            let a_sym = Sym::intern(a);
            mme_actions.insert(a_sym);
            dl_messages.insert(a_sym);
        }
    }
    // Adversary may inject plaintext message types even if no legit flow
    // produces them.
    for m in &cfg.plain_injectable_dl {
        let m_sym = Sym::intern(m);
        if is_message(m) && ue_events.contains(&m_sym) {
            dl_messages.insert(m_sym);
        }
    }
    for m in &cfg.plain_injectable_ul {
        let m_sym = Sym::intern(m);
        if is_message(m) && mme_events.contains(&m_sym) {
            ul_messages.insert(m_sym);
        }
    }

    // ----- variables ------------------------------------------------------
    let none = Sym::intern("none");
    let with_none = |v: &BTreeSet<Sym>| -> Vec<Sym> {
        let mut d = vec![none];
        d.extend(v.iter().copied());
        d
    };
    model.declare_var_syms(
        Sym::intern("ue_state"),
        ue_states.clone(),
        vec![ue
            .initial()
            .expect("UE FSM has an initial state")
            .id()
            .sym()],
    );
    model.declare_var_syms(
        Sym::intern("mme_state"),
        mme_states.clone(),
        vec![mme
            .initial()
            .expect("MME FSM has an initial state")
            .id()
            .sym()],
    );
    model.declare_var_syms(Sym::intern("chan_dl"), with_none(&dl_messages), vec![none]);
    model.declare_var_syms(
        Sym::intern("chan_dl_meta"),
        DL_METAS.iter().map(|s| Sym::intern(s)).collect(),
        vec![none],
    );
    model.declare_var_syms(Sym::intern("chan_ul"), with_none(&ul_messages), vec![none]);
    model.declare_var_syms(
        Sym::intern("chan_ul_meta"),
        UL_METAS.iter().map(|s| Sym::intern(s)).collect(),
        vec![none],
    );
    model.declare_var_syms(
        Sym::intern("last_auth_sqn"),
        vec![none, Sym::intern("fresh"), Sym::intern("stale")],
        vec![none],
    );
    // Monitor (trap) variables consumed by the property registry — each
    // declared only when the property slice asks for it.
    let flag_f = Sym::intern("f");
    let flag_t = Sym::intern("t");
    let mut mon_domain = vec![none];
    mon_domain.extend(dl_messages.iter().copied());
    if cfg.monitor_replay {
        model.declare_var_syms(
            Sym::intern("mon_replay_accepted"),
            mon_domain.clone(),
            vec![none],
        );
    }
    if cfg.monitor_plain {
        model.declare_var_syms(
            Sym::intern("mon_plain_accepted"),
            mon_domain.clone(),
            vec![none],
        );
    }
    if cfg.monitor_bypass {
        model.declare_var_syms(
            Sym::intern("mon_security_bypass"),
            vec![flag_f, flag_t],
            vec![flag_f],
        );
        model.declare_var_syms(
            Sym::intern("mon_sqn_bypass"),
            vec![flag_f, flag_t],
            vec![flag_f],
        );
    }
    if cfg.monitor_imsi {
        model.declare_var_syms(
            Sym::intern("mon_imsi_disclosed"),
            vec![
                none,
                Sym::intern("pre_security"),
                Sym::intern("post_security"),
                Sym::intern("paging"),
            ],
            vec![none],
        );
    }
    let replayable: Vec<Sym> = cfg
        .replayable_dl
        .iter()
        .map(|m| Sym::intern(m))
        .filter(|m| dl_messages.contains(m))
        .collect();
    for m in &replayable {
        model.declare_var_syms(
            Sym::from(format!("cap_{m}")),
            vec![flag_f, flag_t],
            vec![flag_f],
        );
    }
    if cfg.track_ue_last {
        model.declare_var_syms(
            Sym::intern("ue_last_event"),
            with_none(&ue_events),
            vec![none],
        );
        let mut ue_act_domain = with_none(&ue_actions);
        ue_act_domain.push(Sym::intern("null_action"));
        model.declare_var_syms(Sym::intern("ue_last_action"), ue_act_domain, vec![none]);
    }
    if cfg.track_mme_last {
        model.declare_var_syms(
            Sym::intern("mme_last_event"),
            with_none(&mme_events),
            vec![none],
        );
        let mut mme_act_domain = with_none(&mme_actions);
        mme_act_domain.push(Sym::intern("null_action"));
        model.declare_var_syms(Sym::intern("mme_last_action"), mme_act_domain, vec![none]);
    }

    // ----- UE commands ----------------------------------------------------
    for t in ue.transitions() {
        let Some(event) = event_of(t) else { continue };
        let preds = preds_of(t);
        let action = action_of(t);
        if is_message(event) {
            for meta in compatible_dl_metas(&preds, cfg) {
                let mut guard = vec![
                    Expr::var_eq("ue_state", t.from.as_str()),
                    Expr::var_eq("chan_dl", event),
                    Expr::var_eq("chan_dl_meta", meta),
                ];
                if action.is_some() {
                    guard.push(Expr::var_eq("chan_ul", "none"));
                }
                let info = CommandInfo {
                    who: Participant::Ue,
                    kind: "recv".into(),
                    subject: event.into(),
                    meta: meta.into(),
                    action: action.unwrap_or("-").into(),
                };
                let mut cmd = GuardedCmd::new(info.render(uniq), Expr::and(guard))
                    .set("ue_state", t.to.as_str())
                    .set("chan_dl", "none")
                    .set("chan_dl_meta", "none");
                uniq += 1;
                if let Some(a) = action {
                    cmd = cmd.set("chan_ul", a).set("chan_ul_meta", "legit");
                }
                if regenerates_keys(&preds) {
                    let freshness = if meta == "legit" || meta == "adv_forged" {
                        "fresh"
                    } else {
                        "stale"
                    };
                    cmd = cmd.set("last_auth_sqn", freshness);
                }
                // Monitor updates (trap variables for the properties).
                let replay_meta =
                    matches!(meta, "replay_last" | "replay_old" | "replay_old_unconsumed");
                let replay_accepted = preds.get("count_ok") == Some(&"true")
                    || preds.get("smc_replay_accepted") == Some(&"true")
                    || regenerates_keys(&preds);
                if cfg.monitor_replay && replay_meta && replay_accepted {
                    cmd = cmd.set("mon_replay_accepted", event);
                }
                // A conformant stack logs `plain_ok=false` and discards;
                // a transition lacking that marker *processed* the
                // plaintext (even when the processing had no visible
                // action — the check itself is broken, issue I2).
                if cfg.monitor_plain
                    && meta == "adv_plain"
                    && cfg.protected_class_dl.contains(event)
                    && preds.get("plain_ok") != Some(&"false")
                {
                    cmd = cmd.set("mon_plain_accepted", event);
                }
                if cfg.monitor_bypass {
                    if preds.get("security_bypassed") == Some(&"true") {
                        cmd = cmd.set("mon_security_bypass", "t");
                    }
                    if preds.get("sqn_check_bypassed") == Some(&"true") {
                        cmd = cmd.set("mon_sqn_bypass", "t");
                    }
                }
                if cfg.monitor_imsi {
                    if preds.get("imsi_leaked_after_context") == Some(&"true") {
                        cmd = cmd.set("mon_imsi_disclosed", "post_security");
                    } else if preds.get("paged_by_imsi") == Some(&"true") {
                        cmd = cmd.set("mon_imsi_disclosed", "paging");
                    } else if preds.get("identity_disclosed") == Some(&"true")
                        && meta == "adv_plain"
                    {
                        cmd = cmd.set("mon_imsi_disclosed", "pre_security");
                    }
                }
                if cfg.track_ue_last {
                    cmd = cmd
                        .set("ue_last_event", event)
                        .set("ue_last_action", action.unwrap_or("null_action"));
                }
                model.add_command(cmd);
            }
        } else {
            // Internal trigger (attach_enabled, detach_requested, …).
            let mut guard = vec![
                Expr::var_eq("ue_state", t.from.as_str()),
                Expr::var_eq("chan_dl", "none"),
            ];
            if action.is_some() {
                guard.push(Expr::var_eq("chan_ul", "none"));
            }
            let info = CommandInfo {
                who: Participant::Ue,
                kind: "trig".into(),
                subject: event.into(),
                meta: "-".into(),
                action: action.unwrap_or("-").into(),
            };
            let mut cmd =
                GuardedCmd::new(info.render(uniq), Expr::and(guard)).set("ue_state", t.to.as_str());
            uniq += 1;
            if let Some(a) = action {
                cmd = cmd.set("chan_ul", a).set("chan_ul_meta", "legit");
            }
            if cfg.track_ue_last {
                cmd = cmd
                    .set("ue_last_event", event)
                    .set("ue_last_action", action.unwrap_or("null_action"));
            }
            model.add_command(cmd);
        }
    }

    // ----- MME commands ---------------------------------------------------
    for t in mme.transitions() {
        let Some(event) = event_of(t) else { continue };
        let preds = preds_of(t);
        let action = action_of(t);
        if is_message(event) {
            for meta in compatible_ul_metas(&preds, event, cfg) {
                let mut guard = vec![
                    Expr::var_eq("mme_state", t.from.as_str()),
                    Expr::var_eq("chan_ul", event),
                    Expr::var_eq("chan_ul_meta", meta),
                ];
                if action.is_some() {
                    guard.push(Expr::var_eq("chan_dl", "none"));
                }
                let info = CommandInfo {
                    who: Participant::Mme,
                    kind: "recv".into(),
                    subject: event.into(),
                    meta: meta.into(),
                    action: action.unwrap_or("-").into(),
                };
                let mut cmd = GuardedCmd::new(info.render(uniq), Expr::and(guard))
                    .set("mme_state", t.to.as_str())
                    .set("chan_ul", "none")
                    .set("chan_ul_meta", "none");
                uniq += 1;
                if let Some(a) = action {
                    cmd = cmd.set("chan_dl", a).set("chan_dl_meta", "legit");
                }
                if cfg.track_mme_last {
                    cmd = cmd
                        .set("mme_last_event", event)
                        .set("mme_last_action", action.unwrap_or("null_action"));
                }
                model.add_command(cmd);
            }
        } else {
            let mut guard = vec![Expr::var_eq("mme_state", t.from.as_str())];
            if action.is_some() {
                guard.push(Expr::var_eq("chan_dl", "none"));
            }
            let info = CommandInfo {
                who: Participant::Mme,
                kind: "trig".into(),
                subject: event.into(),
                meta: "-".into(),
                action: action.unwrap_or("-").into(),
            };
            let mut cmd = GuardedCmd::new(info.render(uniq), Expr::and(guard))
                .set("mme_state", t.to.as_str());
            uniq += 1;
            if let Some(a) = action {
                cmd = cmd.set("chan_dl", a).set("chan_dl_meta", "legit");
            }
            if cfg.track_mme_last {
                cmd = cmd
                    .set("mme_last_event", event)
                    .set("mme_last_action", action.unwrap_or("null_action"));
            }
            model.add_command(cmd);
        }
    }

    // ----- adversary commands ----------------------------------------------
    for &m in &replayable {
        let cap = Sym::from(format!("cap_{m}"));
        model.add_command(
            GuardedCmd::new(
                adv_label(AdvKind::Capture, m.as_str(), uniq),
                Expr::and([
                    Expr::var_eq("chan_dl", m),
                    Expr::var_eq("chan_dl_meta", "legit"),
                    Expr::var_eq(cap, "f"),
                ]),
            )
            .set(cap, "t"),
        );
        uniq += 1;
        model.add_command(
            GuardedCmd::new(
                adv_label(AdvKind::CaptureDrop, m.as_str(), uniq),
                Expr::and([
                    Expr::var_eq("chan_dl", m),
                    Expr::var_eq("chan_dl_meta", "legit"),
                ]),
            )
            .set(cap, "t")
            .set("chan_dl", "none")
            .set("chan_dl_meta", "none"),
        );
        uniq += 1;
        for (kind, meta) in [
            (AdvKind::ReplayLast, "replay_last"),
            (AdvKind::ReplayOld, "replay_old"),
        ] {
            model.add_command(
                GuardedCmd::new(
                    adv_label(kind, m.as_str(), uniq),
                    Expr::and([Expr::var_eq(cap, "t"), Expr::var_eq("chan_dl", "none")]),
                )
                .set("chan_dl", m)
                .set("chan_dl_meta", meta),
            );
            uniq += 1;
        }
        if m.as_str() == "authentication_request" {
            model.add_command(
                GuardedCmd::new(
                    adv_label(AdvKind::ReplayOldUnconsumed, m.as_str(), uniq),
                    Expr::and([Expr::var_eq(cap, "t"), Expr::var_eq("chan_dl", "none")]),
                )
                .set("chan_dl", m)
                .set("chan_dl_meta", "replay_old_unconsumed"),
            );
            uniq += 1;
        }
    }
    model.add_command(
        GuardedCmd::new(
            adv_label(AdvKind::Drop, "dl", uniq),
            Expr::var_ne("chan_dl", "none"),
        )
        .set("chan_dl", "none")
        .set("chan_dl_meta", "none"),
    );
    uniq += 1;
    model.add_command(
        GuardedCmd::new(
            adv_label(AdvKind::Drop, "ul", uniq),
            Expr::var_ne("chan_ul", "none"),
        )
        .set("chan_ul", "none")
        .set("chan_ul_meta", "none"),
    );
    uniq += 1;
    for m in &cfg.plain_injectable_dl {
        if !dl_messages.contains(&Sym::intern(m)) {
            continue;
        }
        model.add_command(
            GuardedCmd::new(
                adv_label(AdvKind::InjectPlain, m, uniq),
                Expr::var_eq("chan_dl", "none"),
            )
            .set("chan_dl", m.as_str())
            .set("chan_dl_meta", "adv_plain"),
        );
        uniq += 1;
    }
    for m in &cfg.plain_injectable_ul {
        if !ul_messages.contains(&Sym::intern(m)) {
            continue;
        }
        model.add_command(
            GuardedCmd::new(
                adv_label(AdvKind::InjectPlain, m, uniq),
                Expr::var_eq("chan_ul", "none"),
            )
            .set("chan_ul", m.as_str())
            .set("chan_ul_meta", "adv_plain"),
        );
        uniq += 1;
    }
    if cfg.optimistic_crypto {
        for &m in dl_messages.iter().filter(|m| {
            cfg.protected_class_dl.contains(m.as_str()) || m.as_str() == "authentication_request"
        }) {
            model.add_command(
                GuardedCmd::new(
                    adv_label(AdvKind::Forge, m.as_str(), uniq),
                    Expr::var_eq("chan_dl", "none"),
                )
                .set("chan_dl", m)
                .set("chan_dl_meta", "adv_forged"),
            );
            uniq += 1;
        }
    }

    if cfg.fair_delivery {
        model.add_fairness(Expr::and([
            Expr::var_eq("chan_dl", "none"),
            Expr::var_eq("chan_ul", "none"),
        ]));
    }

    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use procheck_fsm::Transition;

    /// Hand-built miniature UE/MME FSM pair exercising the bindings.
    fn mini_ue() -> Fsm {
        let mut f = Fsm::new("ue");
        f.set_initial("emm_deregistered");
        f.add_transition(
            Transition::build("emm_deregistered", "emm_registered_initiated")
                .when("attach_enabled")
                .then("attach_request"),
        );
        f.add_transition(
            Transition::build("emm_registered_initiated", "emm_registered")
                .when("authentication_request")
                .when("aka_mac_valid=true")
                .when("sqn_ok=true")
                .then("authentication_response"),
        );
        f.add_transition(
            Transition::build("emm_registered_initiated", "emm_registered_initiated")
                .when("authentication_request")
                .when("aka_mac_valid=false")
                .then("authentication_failure"),
        );
        f.add_transition(
            Transition::build("emm_registered", "emm_registered")
                .when("emm_information")
                .when("mac_valid=true")
                .when("count_delta=fresh")
                .when("count_ok=true")
                .then("null_action"),
        );
        f.add_transition(
            Transition::build("emm_registered", "emm_registered")
                .when("emm_information")
                .when("mac_valid=true")
                .when("count_delta=stale")
                .when("count_ok=false")
                .then("null_action"),
        );
        f
    }

    fn mini_mme() -> Fsm {
        let mut f = Fsm::new("mme");
        f.set_initial("mme_deregistered");
        f.add_transition(
            Transition::build("mme_deregistered", "mme_wait_auth_response")
                .when("attach_request")
                .then("authentication_request"),
        );
        f.add_transition(
            Transition::build("mme_wait_auth_response", "mme_registered")
                .when("authentication_response")
                .when("res_ok=true")
                .then("emm_information"),
        );
        f
    }

    #[test]
    fn model_validates_and_has_expected_vars() {
        let model = build_threat_model(&mini_ue(), &mini_mme(), &ThreatConfig::lte());
        assert!(model.validate().is_empty(), "{:?}", model.validate());
        for v in [
            "ue_state",
            "mme_state",
            "chan_dl",
            "chan_dl_meta",
            "chan_ul",
            "last_auth_sqn",
        ] {
            assert!(model.var(v).is_some(), "missing {v}");
        }
        assert!(model.var("cap_authentication_request").is_some());
        assert!(
            model.var("cap_attach_accept").is_none(),
            "not in this mini FSM"
        );
    }

    #[test]
    fn replay_bindings_follow_predicates() {
        let model = build_threat_model(&mini_ue(), &mini_mme(), &ThreatConfig::lte());
        let labels: Vec<&str> = model.commands().iter().map(|c| c.label.as_str()).collect();
        // The fresh-count transition binds to legit (and forged), never replays.
        assert!(labels
            .iter()
            .any(|l| l.starts_with("ue:recv:emm_information:legit")));
        assert!(!labels
            .iter()
            .any(|l| l.starts_with("ue:recv:emm_information:replay_old:")
                && l.contains(":null_action")));
        // The stale-count transition binds to replay_old.
        assert!(labels
            .iter()
            .any(|l| l.starts_with("ue:recv:emm_information:replay_old")));
        // The accepting auth transition binds to the unconsumed replay (P1 window).
        assert!(labels
            .iter()
            .any(|l| l.starts_with("ue:recv:authentication_request:replay_old_unconsumed")));
        // The MAC-failure transition binds to adv_plain.
        assert!(labels
            .iter()
            .any(|l| l.starts_with("ue:recv:authentication_request:adv_plain")));
    }

    #[test]
    fn freshness_limit_removes_unconsumed_binding_from_accepting_transition() {
        let model = build_threat_model(
            &mini_ue(),
            &mini_mme(),
            &ThreatConfig::lte_with_freshness_limit(),
        );
        let accepting_unconsumed = model.commands().iter().any(|c| {
            c.label
                .as_str()
                .starts_with("ue:recv:authentication_request:replay_old_unconsumed")
                && c.updates
                    .get(&Sym::intern("last_auth_sqn"))
                    .map(|s| s.as_str())
                    == Some("stale")
        });
        assert!(
            !accepting_unconsumed,
            "L closes the stale-acceptance window"
        );
    }

    #[test]
    fn res_protected_uplink_not_forgeable() {
        let model = build_threat_model(&mini_ue(), &mini_mme(), &ThreatConfig::lte());
        assert!(!model.commands().iter().any(|c| c
            .label
            .as_str()
            .starts_with("mme:recv:authentication_response:adv_plain")));
    }

    #[test]
    fn adversary_command_set_present() {
        let model = build_threat_model(&mini_ue(), &mini_mme(), &ThreatConfig::lte());
        let labels: Vec<&str> = model.commands().iter().map(|c| c.label.as_str()).collect();
        for prefix in [
            "adv:capture:authentication_request",
            "adv:capture_drop:authentication_request",
            "adv:replay_old_unconsumed:authentication_request",
            "adv:drop:dl",
            "adv:drop:ul",
            "adv:inject_plain:authentication_request",
            "adv:forge:emm_information",
        ] {
            assert!(
                labels.iter().any(|l| l.starts_with(prefix)),
                "missing adversary command {prefix}"
            );
        }
    }

    /// Refinement is a [`CmdIdSet`] mask over the compiled model, not a
    /// model rebuild: masking every forge command must answer queries
    /// exactly as a model built without forging in the first place.
    #[test]
    fn exclusion_mask_matches_forge_free_model() {
        use procheck_ident::CmdIdSet;
        use procheck_smv::checker::{
            build_reach_graph_budgeted, check_bounded, check_on_graph, CheckStats, Property,
            QueryStats,
        };
        use procheck_smv::BudgetMeter;

        let model = build_threat_model(&mini_ue(), &mini_mme(), &ThreatConfig::lte());
        let compiled = procheck_smv::CompiledModel::new(&model).expect("model compiles");
        let forge_ids: Vec<_> = model
            .commands()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.label.as_str().starts_with("adv:forge"))
            .map(|(i, _)| procheck_ident::CmdId::new(i))
            .collect();
        assert!(!forge_ids.is_empty());
        let mut mask = compiled.exclusion_set();
        assert!(mask.is_empty());
        for id in forge_ids {
            mask.insert(id);
        }

        let no_forge = build_threat_model(
            &mini_ue(),
            &mini_mme(),
            &ThreatConfig::lte().without_forge(),
        );
        assert_eq!(
            no_forge.commands().len(),
            model.commands().len() - mask.len()
        );

        let p = Property::reachable("forged_dl", Expr::var_eq("chan_dl_meta", "adv_forged"));
        let mut stats = CheckStats::default();
        let meter = BudgetMeter::unlimited();
        let graph = build_reach_graph_budgeted(&compiled, 1_000_000, &meter, &mut stats, 1)
            .expect("explore");
        let cp = compiled.compile_property(&p).expect("property compiles");
        let mut q = QueryStats::default();
        let masked = check_on_graph(&compiled, &graph, &cp, &mask, 1_000_000, &meter, &mut q)
            .expect("masked query");
        let reference = check_bounded(&no_forge, &p, 1_000_000, &mut CheckStats::default())
            .expect("reference check");
        // Forged delivery is reachable in the full model, and both the
        // masked query and the forge-free model agree it is not once the
        // forge commands are out of play.
        let unmasked = check_on_graph(
            &compiled,
            &graph,
            &cp,
            &CmdIdSet::default(),
            1_000_000,
            &meter,
            &mut q,
        )
        .expect("unmasked query");
        assert!(matches!(
            unmasked,
            procheck_smv::checker::Verdict::Reachable(_)
        ));
        assert!(matches!(
            masked,
            procheck_smv::checker::Verdict::Unreachable
        ));
        assert!(matches!(
            reference,
            procheck_smv::checker::Verdict::Unreachable
        ));
    }

    #[test]
    fn observers_are_opt_in() {
        let base = build_threat_model(&mini_ue(), &mini_mme(), &ThreatConfig::lte());
        assert!(base.var("ue_last_event").is_none());
        assert!(base.var("mon_replay_accepted").is_none());
        let sliced = build_threat_model(
            &mini_ue(),
            &mini_mme(),
            &ThreatConfig::lte().with_ue_last().with_replay_monitor(),
        );
        assert!(sliced.var("ue_last_event").is_some());
        assert!(sliced.var("mon_replay_accepted").is_some());
        assert!(sliced.var("mon_imsi_disclosed").is_none());
        assert!(sliced.validate().is_empty());
    }
}
