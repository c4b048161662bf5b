//! The same seed gives the same operations; another seed, others.

use perfbench::ops::{cold_queries, op_log, write_batches, write_line};

#[test]
fn op_log_is_a_function_of_the_seed() {
    for w in ["uni_write", "uni_cold"] {
        assert_eq!(op_log(w, 7, 300), op_log(w, 7, 300), "{w}");
        assert_ne!(op_log(w, 7, 300), op_log(w, 8, 300), "{w}");
    }
}

#[test]
fn generated_inputs_are_a_function_of_the_seed() {
    let sig = obda_genont::university_tbox().sig;
    assert_eq!(cold_queries(&sig, 3, 500), cold_queries(&sig, 3, 500));
    assert_ne!(cold_queries(&sig, 3, 500), cold_queries(&sig, 4, 500));
    let lines = |seed| -> Vec<String> {
        write_batches(2, seed, 50)
            .iter()
            .enumerate()
            .map(|(i, b)| write_line(i, b))
            .collect()
    };
    assert_eq!(lines(3), lines(3));
    assert_ne!(lines(3), lines(4));
}

#[test]
fn writes_are_a_quarter_of_uni_write() {
    let log = op_log("uni_write", 1, 400);
    let writes = |conn: &[perfbench::ops::Op]| {
        conn.iter()
            .filter(|op| matches!(op, perfbench::ops::Op::Write(_)))
            .count()
    };
    // All writes come from connection 0, half of its operations.
    assert_eq!(writes(&log[0]), 200);
    assert_eq!(writes(&log[1]), 0);
}

#[test]
fn cold_queries_are_distinct_and_connected() {
    let sig = obda_genont::university_tbox().sig;
    let qs = cold_queries(&sig, 1, 2000);
    let mut canon = std::collections::HashSet::new();
    for q in &qs {
        let cq = mastro::parse_cq(&q.text, &sig).expect("rendered query parses");
        assert!(canon.insert(cq.canonical()), "duplicate {}", q.text);
        // Connected: a union-find over atoms sharing a variable ends in
        // one component.
        let vars: Vec<Vec<String>> = cq
            .atoms
            .iter()
            .map(|a| a.vars().into_iter().map(str::to_string).collect())
            .collect();
        let mut reached = vec![false; vars.len()];
        reached[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..vars.len() {
                if !reached[i]
                    && (0..vars.len())
                        .any(|j| reached[j] && vars[i].iter().any(|v| vars[j].contains(v)))
                {
                    reached[i] = true;
                    changed = true;
                }
            }
        }
        assert!(reached.iter().all(|&r| r), "not connected: {}", q.text);
    }
}

#[test]
fn write_cycle_returns_to_the_base_abox() {
    use mastro::QueryEngine;
    let (tbox, base) = perfbench::reference::base_abox(1);
    let cycle = perfbench::ops::write_cycle(&tbox.sig, &base, 1);
    assert!(cycle.len() > perfbench::ops::CYCLE_BATCHES);
    let engine = perfbench::reference::abox_engine(tbox.clone(), base.clone());
    let mix = perfbench::ops::university_mix(1);
    let answers = |e: &mastro::AboxSystem| -> Vec<_> {
        mix.iter()
            .map(|q| perfbench::reference::answer(e, q).expect("mix answers"))
            .collect()
    };
    let before = answers(&engine);
    let (mut changed, mut mid) = (0, None);
    for (i, line) in cycle.iter().enumerate() {
        let s = engine
            .apply_delta(&perfbench::ops::delta_of(line))
            .expect("batch applies");
        changed += s.inserted + s.deleted;
        if i + 1 == perfbench::ops::CYCLE_BATCHES {
            mid = Some(answers(&engine));
        }
    }
    assert!(changed > 0);
    assert_ne!(
        mid.expect("forward half ran"),
        before,
        "the forward half changes answers"
    );
    assert_eq!(
        answers(&engine),
        before,
        "a full cycle restores every answer"
    );
}
