//! Workspace integration tests: the Section 6 applications — replicated
//! state machines, the non-idempotent bank, and the deferred-update
//! certifying database — running over the full protocol stack with faults.

use crash_recovery_abcast::replication::bank::BankCommand;
use crash_recovery_abcast::replication::quorum::{
    combine_read_replies, QuorumConfig, QuorumReadOutcome, ReadReply,
};
use crash_recovery_abcast::replication::state_machine::StateMachine;
use crash_recovery_abcast::{
    Bank, CertifyingDatabase, ConsensusConfig, KvCommand, KvStore, LinkConfig, MsgId, ProcessId,
    ProtocolConfig, Replica, SimConfig, SimDuration, SimTime, Simulation, Transaction,
};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn lan(n: usize, seed: u64) -> SimConfig {
    SimConfig {
        processes: n,
        seed,
        link: LinkConfig::lan(),
    }
}

fn wait_all_executed<S>(
    sim: &mut Simulation<Replica<S>>,
    ids: &[MsgId],
    deadline: SimTime,
) -> bool
where
    S: StateMachine,
{
    let ids = ids.to_vec();
    sim.run_until(deadline, |sim| {
        sim.processes().iter().all(|q| {
            sim.actor(q)
                .map(|r| ids.iter().all(|id| r.has_executed(*id)))
                .unwrap_or(false)
        })
    })
}

#[test]
fn bank_conserves_money_despite_crashes_and_message_loss() {
    // The bank is non-idempotent: losing or duplicating a delivered command
    // would change the total.  Run transfers under a lossy link with a
    // crashing replica and verify conservation on every replica.
    let link = LinkConfig::lan().with_loss(0.1).with_duplication(0.02);
    let mut sim = Simulation::new(
        SimConfig {
            processes: 3,
            seed: 41,
            link,
        },
        |_p, _s| Replica::<Bank>::new(ProtocolConfig::alternative(), ConsensusConfig::crash_recovery()),
    );

    let mut ids = Vec::new();
    for (i, account) in ["alice", "bob", "carol"].iter().enumerate() {
        let cmd = BankCommand::Open {
            account: account.to_string(),
            balance: 1_000,
        };
        ids.push(sim.with_actor_mut(p(i as u32), |r, ctx| r.submit(&cmd, ctx)).unwrap());
        sim.run_for(SimDuration::from_millis(20));
    }

    for i in 0..30u64 {
        if i == 10 {
            sim.crash_now(p(2));
        }
        if i == 20 {
            sim.recover_now(p(2));
        }
        let from = ["alice", "bob", "carol"][(i % 3) as usize];
        let to = ["alice", "bob", "carol"][((i + 1) % 3) as usize];
        let cmd = BankCommand::Transfer {
            from: from.to_string(),
            to: to.to_string(),
            amount: (i % 70) + 1,
        };
        let submitter = p((i % 2) as u32); // always-up processes submit
        if let Some(id) = sim.with_actor_mut(submitter, |r, ctx| r.submit(&cmd, ctx)) {
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(15));
    }

    assert!(
        wait_all_executed(&mut sim, &ids, SimTime::from_micros(300_000_000)),
        "bank commands must all execute"
    );
    let reference = sim.actor(p(0)).unwrap().state().clone();
    assert_eq!(reference.total(), 3_000, "money must be conserved");
    assert_eq!(reference.accounts(), 3);
    for q in sim.processes().iter() {
        assert_eq!(sim.actor(q).unwrap().state(), &reference, "{q} diverged");
    }
}

#[test]
fn kv_replicas_reach_the_same_state_under_concurrent_writers() {
    let mut sim = Simulation::new(lan(5, 42), |_p, _s| {
        Replica::<KvStore>::new(ProtocolConfig::alternative(), ConsensusConfig::crash_recovery())
    });
    let mut ids = Vec::new();
    // All five replicas write the same small key range concurrently.
    for i in 0..40u32 {
        let writer = p(i % 5);
        let cmd = KvCommand::put(format!("k{}", i % 4), format!("from-{writer}-{i}"));
        if let Some(id) = sim.with_actor_mut(writer, |r, ctx| r.submit(&cmd, ctx)) {
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(4));
    }
    assert!(wait_all_executed(&mut sim, &ids, SimTime::from_micros(300_000_000)));
    let reference = sim.actor(p(0)).unwrap().state().clone();
    assert_eq!(reference.len(), 4);
    for q in sim.processes().iter() {
        assert_eq!(sim.actor(q).unwrap().state(), &reference, "{q} diverged");
    }
}

#[test]
fn deferred_update_certification_is_identical_on_every_replica_under_faults() {
    let mut sim = Simulation::new(lan(3, 43), |_p, _s| {
        Replica::<CertifyingDatabase>::new(
            ProtocolConfig::alternative(),
            ConsensusConfig::crash_recovery(),
        )
    });

    let mut ids = Vec::new();
    for txid in 0..24u64 {
        if txid == 8 {
            sim.crash_now(p(2));
        }
        if txid == 16 {
            sim.recover_now(p(2));
        }
        let home = p((txid % 2) as u32);
        let key = format!("k{}", txid % 3);
        if let Some(id) = sim.with_actor_mut(home, |replica, ctx| {
            let (_, version) = replica.state().read(&key);
            let tx = Transaction::new(txid).read(key.clone(), version).write(key.clone(), format!("t{txid}"));
            replica.submit(&tx, ctx)
        }) {
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(12));
    }
    assert!(wait_all_executed(&mut sim, &ids, SimTime::from_micros(300_000_000)));

    let reference = sim.actor(p(0)).unwrap().state().clone();
    assert_eq!(reference.committed() + reference.aborted(), ids.len() as u64);
    assert!(reference.committed() > 0);
    for q in sim.processes().iter() {
        let state = sim.actor(q).unwrap().state();
        assert_eq!(state, &reference, "{q} certified a different history");
    }
}

#[test]
fn deferred_update_aborts_more_under_more_contention_and_replicas_agree() {
    // Each transaction executes optimistically at a rotating home replica:
    // it reads one key (recording its version) and writes another.  Fewer
    // keys mean more stale reads at certification time.
    let aborted = |keys: u64| {
        let mut sim = Simulation::new(lan(3, 909), |_p, _s| {
            Replica::<CertifyingDatabase>::new(
                ProtocolConfig::alternative(),
                ConsensusConfig::crash_recovery(),
            )
        });
        let mut ids = Vec::new();
        for txid in 0..40u64 {
            let read_key = format!("k{}", (txid * 7) % keys);
            let write_key = format!("k{}", (txid * 13 + 5) % keys);
            if let Some(id) = sim.with_actor_mut(p((txid % 3) as u32), |replica, ctx| {
                let (_, version) = replica.state().read(&read_key);
                let tx = Transaction::new(txid)
                    .read(read_key.clone(), version)
                    .write(write_key.clone(), format!("t{txid}"));
                replica.submit(&tx, ctx)
            }) {
                ids.push(id);
            }
            sim.run_for(SimDuration::from_millis(6));
        }
        assert!(wait_all_executed(&mut sim, &ids, SimTime::from_micros(600_000_000)));
        let reference = sim.actor(p(0)).unwrap().state().clone();
        for q in sim.processes().iter() {
            assert_eq!(sim.actor(q).unwrap().state(), &reference, "{q} diverged at {keys} keys");
        }
        reference.aborted()
    };
    let (hot, cold) = (aborted(2), aborted(16));
    assert!(hot > 0, "two keys must produce read-write conflicts");
    assert!(hot >= cold, "2 keys aborted {hot}, 16 keys aborted {cold}");
}

#[test]
fn majority_quorum_read_returns_the_latest_write_with_two_of_five_down() {
    let mut sim = Simulation::new(lan(5, 1010), |_p, _s| {
        Replica::<KvStore>::new(ProtocolConfig::alternative(), ConsensusConfig::crash_recovery())
    });
    sim.crash_now(p(3));
    sim.crash_now(p(4));
    let mut last = None;
    for i in 0..5 {
        let cmd = KvCommand::put("x", format!("v{i}"));
        last = sim.with_actor_mut(p(0), |r, ctx| r.submit(&cmd, ctx));
        sim.run_for(SimDuration::from_millis(10));
    }
    let last = last.expect("the writer is up");
    assert!(sim.run_until(SimTime::from_micros(120_000_000), |sim| {
        (0..3).all(|q| sim.actor(p(q)).is_some_and(|r| r.has_executed(last)))
    }));

    let replies: Vec<ReadReply<Option<String>>> = sim
        .processes()
        .iter()
        .filter_map(|q| {
            sim.actor(q).map(|replica| ReadReply {
                replica: q,
                version: replica.broadcast().agreed().total_delivered(),
                value: replica.state().get("x").map(str::to_string),
            })
        })
        .collect();
    assert_eq!(replies.len(), 3, "only the three up replicas answer");
    match combine_read_replies(&QuorumConfig::uniform_majority(5), &replies) {
        QuorumReadOutcome::Value { value, .. } => assert_eq!(value.as_deref(), Some("v4")),
        other => panic!("a majority of 5 is up, the read must succeed: {other:?}"),
    }
}

#[test]
fn recovered_replica_state_is_rebuilt_from_checkpoints_not_from_scratch() {
    // With application checkpoints enabled, a recovering replica restores
    // the service state embedded in its own (k, Agreed) record and in state
    // transfers, rather than re-applying the full history.
    let mut sim = Simulation::new(lan(3, 44), |_p, _s| {
        Replica::<KvStore>::new(
            ProtocolConfig::alternative().with_checkpoint_period(SimDuration::from_millis(50)),
            ConsensusConfig::crash_recovery(),
        )
    });
    let mut ids = Vec::new();
    for i in 0..20u32 {
        let cmd = KvCommand::put(format!("key{}", i % 6), format!("v{i}"));
        if let Some(id) = sim.with_actor_mut(p(0), |r, ctx| r.submit(&cmd, ctx)) {
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(20));
    }
    assert!(wait_all_executed(&mut sim, &ids, SimTime::from_micros(120_000_000)));

    sim.crash_now(p(1));
    sim.recover_now(p(1));
    sim.run_for(SimDuration::from_secs(1));
    let recovered = sim.actor(p(1)).unwrap();
    // All six keys are present even though the replica has only re-applied
    // (at most) the explicit suffix after its checkpoint.
    assert_eq!(recovered.state().len(), 6);
    assert!(
        recovered.commands_applied() <= ids.len() as u64,
        "recovery must not replay more commands than were ever submitted"
    );
    let reference = sim.actor(p(0)).unwrap().state().clone();
    assert_eq!(recovered.state(), &reference);
}
