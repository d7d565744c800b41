//! Property-based tests of the durable registration log.
//!
//! The two durability contracts the service tier leans on:
//!
//! 1. **Torn-tail recovery is prefix-exact.** Whatever happens to the
//!    file past the last intact record — truncation mid-record, bit
//!    flips, arbitrary garbage — a scan recovers exactly the records
//!    that were fully written, in order, and nothing else.
//! 2. **Compaction is invisible.** Compacting at any point and then
//!    appending more history replays to the same state as the full
//!    uncompacted history — the tenant (register/deregister) history
//!    included, in order: only connection churn collapses.
//! 3. **The reserve hides nothing.** A crash image — intact records, a
//!    half-written one, zeros, maybe an intact record past the gap —
//!    reopens to exactly the intact prefix behind a fresh reserve, and
//!    no later append or compaction brings the stale record back.

use proptest::prelude::*;
use saba_core::rpc::Request;
use saba_service::wal::{append_record, scan, DurableLog, ReplayState, RESERVE};
use saba_sim::ids::{AppId, NodeId};
use std::path::PathBuf;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u32..64, "[a-zA-Z0-9_-]{0,24}").prop_map(|(app, workload)| Request::AppRegister {
            app: AppId(app),
            workload,
        }),
        (0u32..64, any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(app, src, dst, tag)| {
            Request::ConnCreate {
                app: AppId(app),
                src: NodeId(src),
                dst: NodeId(dst),
                tag,
            }
        }),
        (0u32..64, any::<u64>()).prop_map(|(app, tag)| Request::ConnDestroy {
            app: AppId(app),
            tag,
        }),
        (0u32..64).prop_map(|app| Request::AppDeregister { app: AppId(app) }),
    ]
}

fn encode_log(reqs: &[Request]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::with_capacity(reqs.len());
    for req in reqs {
        append_record(&mut bytes, req);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

fn tmpfile(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("saba-walprop-{}-{tag}.log", std::process::id()))
}

proptest! {
    /// Cutting the log at ANY byte position recovers exactly the
    /// records that end at or before the cut.
    #[test]
    fn truncation_recovers_the_exact_intact_prefix(
        reqs in proptest::collection::vec(arb_request(), 1..24),
        cut_frac in 0.0f64..1.0,
    ) {
        let (bytes, ends) = encode_log(&reqs);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let report = scan(&bytes[..cut]);
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(report.records.len(), expect);
        prop_assert_eq!(&report.records[..], &reqs[..expect]);
        prop_assert_eq!(report.valid_bytes, if expect == 0 { 0 } else { ends[expect - 1] });
    }

    /// Arbitrary garbage appended after intact records never yields
    /// extra records, and never loses the intact prefix.
    #[test]
    fn garbage_tail_never_fabricates_or_loses_records(
        reqs in proptest::collection::vec(arb_request(), 0..16),
        garbage in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (mut bytes, _) = encode_log(&reqs);
        let valid_len = bytes.len();
        bytes.extend_from_slice(&garbage);
        let report = scan(&bytes);
        // The prefix always survives. The garbage can only extend the
        // record set in the astronomically unlikely event it forms a
        // CRC-valid frame — treat any extension beyond the prefix as
        // a failure; CRC32 over proptest-sized inputs won't collide.
        prop_assert!(report.records.len() >= reqs.len());
        prop_assert_eq!(&report.records[..reqs.len()], &reqs[..]);
        prop_assert_eq!(report.records.len(), reqs.len());
        prop_assert_eq!(report.valid_bytes, valid_len);
        prop_assert_eq!(report.torn_bytes, garbage.len());
    }

    /// Flipping any single bit inside the record area loses only
    /// records at or after the flipped one — never earlier ones, and
    /// never yields a record that was not appended.
    #[test]
    fn bit_flip_loses_only_the_suffix(
        reqs in proptest::collection::vec(arb_request(), 1..16),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (mut bytes, ends) = encode_log(&reqs);
        let pos = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let report = scan(&bytes);
        // The scan stops at the record containing the flip (its CRC
        // cannot match): every record before it survives intact,
        // every record from it on is gone.
        let intact = ends.iter().filter(|&&e| e <= pos).count();
        prop_assert_eq!(report.records.len(), intact);
        prop_assert_eq!(&report.records[..], &reqs[..intact]);
    }

    /// Compacting after an arbitrary prefix, then appending the rest,
    /// replays to exactly the state of the full uncompacted history —
    /// through a real on-disk log, reopen included.
    #[test]
    fn compaction_plus_suffix_replays_like_the_full_history(
        reqs in proptest::collection::vec(arb_request(), 1..32),
        split_frac in 0.0f64..1.0,
        case in 0u64..u64::MAX,
    ) {
        let split = ((reqs.len() as f64) * split_frac) as usize;
        let path = tmpfile(&format!("compact-{case:x}"));
        let _ = std::fs::remove_file(&path);

        let (mut log, _) = DurableLog::open(&path, 4).unwrap();
        let mut state = ReplayState::default();
        for req in &reqs[..split] {
            log.append(req).unwrap();
            state.apply(req);
        }
        log.compact(&state).unwrap();
        // The snapshot's shape: every register/deregister of the
        // prefix in its original order (what the PL assigner's state
        // depends on), then exactly the live connections.
        let is_tenancy =
            |r: &&Request| matches!(r, Request::AppRegister { .. } | Request::AppDeregister { .. });
        let snapshot = state.snapshot_records();
        let tenancy: Vec<&Request> = reqs[..split].iter().filter(is_tenancy).collect();
        prop_assert_eq!(snapshot.iter().take(tenancy.len()).collect::<Vec<_>>(), tenancy);
        let conns = &snapshot[snapshot.len() - state.live_conns.len()..];
        prop_assert!(conns.iter().all(|r| matches!(r, Request::ConnCreate { .. })));
        prop_assert_eq!(snapshot.len(), state.tenancy.len() + state.live_conns.len());
        for req in &reqs[split..] {
            log.append(req).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let (_, scan_report) = DurableLog::open(&path, 4).unwrap();
        let replayed = ReplayState::replay(&scan_report.records);
        let full = ReplayState::replay(reqs.iter());
        prop_assert_eq!(replayed, full);
        let _ = std::fs::remove_file(&path);
    }

    /// A crash image reopens to its intact prefix, counting only the
    /// non-zero bytes past it as torn; one append plus a reopen holds
    /// the prefix and the new record — also when the append exactly
    /// closes the gap to a stale record — and a compaction keeps a
    /// reserve, takes the next append into it, and replays like the
    /// history.
    #[test]
    fn a_crash_image_reopens_to_its_prefix_and_stays_there(
        prefix in proptest::collection::vec(arb_request(), 0..12),
        torn in arb_request(),
        cut_frac in 0.0f64..1.0,
        gap in prop_oneof![Just(None), (0usize..300).prop_map(Some), Just(Some(RESERVE as usize))],
        stale in proptest::option::of(arb_request()),
        next in arb_request(),
        compact in any::<bool>(),
        after in arb_request(),
        case in 0u64..u64::MAX,
    ) {
        let (mut image, ends) = encode_log(&prefix);
        let valid = image.len();
        // Cut the torn record before its last non-zero byte, so the
        // zeros that follow cannot complete it.
        let (rec, _) = encode_log(std::slice::from_ref(&torn));
        let last = rec.iter().rposition(|&b| b != 0).unwrap();
        let cut = 1 + ((last as f64) * cut_frac) as usize;
        let next_len = encode_log(std::slice::from_ref(&next)).0.len();
        // `None`: the gap the first append closes exactly, if it can.
        let zeros = gap.unwrap_or(next_len.saturating_sub(cut));
        image.extend_from_slice(&rec[..cut]);
        image.resize(image.len() + zeros, 0);
        if let Some(stale) = &stale {
            image.extend_from_slice(&encode_log(std::slice::from_ref(stale)).0);
        }
        let nonzero = image[valid..].iter().filter(|&&b| b != 0).count();
        let path = tmpfile(&format!("crash-{case:x}"));
        std::fs::write(&path, &image).unwrap();
        let prefix_then_reserve = |valid: usize| -> Result<(), String> {
            let bytes = std::fs::read(&path).unwrap();
            prop_assert_eq!(bytes.len() as u64, valid as u64 + RESERVE);
            prop_assert!(bytes[valid..].iter().all(|&b| b == 0));
            Ok(())
        };

        let (mut log, report) = DurableLog::open(&path, 4).unwrap();
        prop_assert_eq!(&report.records, &prefix);
        prop_assert_eq!(report.valid_bytes, ends.last().copied().unwrap_or(0));
        prop_assert_eq!(report.torn_bytes, nonzero);
        prefix_then_reserve(valid)?;

        let mut history = prefix.clone();
        log.append(&next).unwrap();
        history.push(next.clone());
        if compact {
            let state = ReplayState::replay(&history);
            log.compact(&state).unwrap();
            prefix_then_reserve(encode_log(&state.snapshot_records()).0.len())?;
            log.append(&after).unwrap();
            history.push(after.clone());
        }
        log.sync().unwrap();
        drop(log);
        let (_, report) = DurableLog::open(&path, 4).unwrap();
        if compact {
            prop_assert_eq!(
                ReplayState::replay(&report.records),
                ReplayState::replay(&history)
            );
        } else {
            prop_assert_eq!(&report.records, &history);
        }
        prop_assert_eq!(report.torn_bytes, 0);
        prefix_then_reserve(report.valid_bytes)?;
        let _ = std::fs::remove_file(&path);
    }
}
