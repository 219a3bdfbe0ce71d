//! Crash-safety tests that use *real* child processes.
//!
//! The test binary re-executes itself (filtered to [`shmem_child`])
//! with `RQSHMEM_*` env vars selecting a role; the parent then SIGKILLs
//! the writer (`Child::kill`) and asserts both the survivor's live view
//! and a fresh attach see a consistent segment with zero corrupt
//! entries. The env vars are deliberately not `REQISC_*`-prefixed:
//! they are process-internal test plumbing, not operator knobs, and the
//! `env-registry` lint enforces that split.

use reqisc_shmem::{PublishOutcome, Segment};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const V: u32 = 4242;
const CAPACITY: u64 = 4 << 20;

static NEXT: AtomicU32 = AtomicU32::new(0);

/// The crash tests run one at a time. A child process that one test
/// spawns holds copies of every file this process has open until it
/// execs, so a sibling test's spawn can keep a segment's flock alive
/// across the "sole attacher" recovery the tests assert.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling test poisons the lock; the guarded data is `()`.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_path(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("reqisc-shmem-crash-{tag}-{}-{n}.seg", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Deterministic per-key value so interleaved publishers of the same
/// key can never disagree.
fn val_for(key: &[u8]) -> Vec<u8> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.to_le_bytes().to_vec()
}

fn spawn_child(role: &str, path: &std::path::Path, extra: &[(&str, String)]) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args(["shmem_child", "--exact", "--nocapture"])
        .env("RQSHMEM_ROLE", role)
        .env("RQSHMEM_PATH", path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn child test process")
}

/// Child dispatcher. With no `RQSHMEM_ROLE` set (a normal test run)
/// this is a no-op pass; under a role it becomes the writer process
/// the parent tests crash or race against.
#[test]
fn shmem_child() {
    let role = match std::env::var("RQSHMEM_ROLE") {
        Ok(r) => r,
        Err(_) => return,
    };
    let path = PathBuf::from(std::env::var("RQSHMEM_PATH").expect("RQSHMEM_PATH"));
    let seg = Segment::attach(&path, CAPACITY, V).expect("child attach");
    match role.as_str() {
        // Publish forever (the parent SIGKILLs us at a random point —
        // possibly mid-append).
        "publish-loop" => {
            let payload = vec![0x42u8; 8 * 1024];
            for i in 0u64.. {
                let key = format!("loop-{i}");
                let mut val = val_for(key.as_bytes());
                val.extend_from_slice(&payload);
                seg.publish(1, key.as_bytes(), &val);
            }
        }
        // Publish a known set, then park in exactly the mid-append
        // state (payload reserved + written, commit word never stored)
        // and wait for the SIGKILL.
        "tail-then-hang" => {
            let count: u64 = std::env::var("RQSHMEM_COUNT").unwrap().parse().unwrap();
            for i in 0..count {
                let key = format!("tail-{i}");
                assert_eq!(
                    seg.publish(1, key.as_bytes(), &val_for(key.as_bytes())),
                    PublishOutcome::Published
                );
            }
            seg.debug_append_uncommitted(8 * 1024).expect("reserve tail");
            println!("TAIL-READY");
            loop {
                std::thread::sleep(Duration::from_secs(60));
            }
        }
        // Publish a finite prefixed set and exit cleanly (conservation
        // proptest runs two of these concurrently).
        "pubset" => {
            let count: u64 = std::env::var("RQSHMEM_COUNT").unwrap().parse().unwrap();
            let prefix = std::env::var("RQSHMEM_PREFIX").unwrap();
            for i in 0..count {
                let key = format!("{prefix}-{i}");
                let out = seg.publish(1, key.as_bytes(), &val_for(key.as_bytes()));
                assert_ne!(out, PublishOutcome::SegmentFull, "segment full in child");
            }
        }
        other => panic!("unknown child role {other:?}"),
    }
}

/// Kill -9 a writer at an arbitrary point in its publish loop: the
/// surviving attached process and a fresh attach must both read a
/// consistent segment — every indexed entry validates, zero corrupt
/// entries — regardless of where the kill landed.
#[test]
fn kill9_random_point_leaves_consistent_segment() {
    let _serial = serial();
    let path = tmp_path("kill9-random");
    let _c = Cleanup(path.clone());
    let survivor = Segment::attach(&path, CAPACITY, V).expect("parent attach");
    let mut child = spawn_child("publish-loop", &path, &[]);

    let deadline = Instant::now() + Duration::from_secs(30);
    while survivor.entries() < 50 {
        assert!(Instant::now() < deadline, "child published too slowly");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL writer");
    child.wait().expect("reap writer");

    // Survivor view: every indexed entry must validate (for_each only
    // yields checksum-valid records), and the keys the writer fully
    // published must round-trip.
    let indexed = survivor.entries();
    assert!(indexed >= 50);
    let mut valid = 0u64;
    survivor.for_each(|pool, key, val, _stamp| {
        assert_eq!(pool, 1);
        assert_eq!(&val[..8], &val_for(key)[..8], "corrupt entry for {key:?}");
        valid += 1;
    });
    assert_eq!(valid, indexed, "indexed entries that fail validation");
    // The writer publishes keys in order, so every key below the
    // indexed count must be present (the kill can only have cost the
    // one in-flight record).
    for i in 0..indexed.saturating_sub(1) {
        let key = format!("loop-{i}");
        assert!(
            survivor.probe(1, key.as_bytes()).is_some(),
            "fully-published key {key} lost"
        );
    }

    // Fresh attach (sole attacher → recovery scrub runs): zero corrupt
    // entries, identical live set, any uncommitted tail truncated.
    drop(survivor);
    let fresh = Segment::attach(&path, CAPACITY, V).expect("fresh attach");
    let r = fresh.recovery();
    assert!(r.ran && !r.reinitialized);
    assert_eq!(r.dropped_records, 0, "no index slot may point at garbage");
    assert_eq!(r.stale_claims, 0);
    assert_eq!(r.live_entries, indexed);
    assert_eq!(fresh.entries(), indexed);
    // And the segment is still writable.
    assert_eq!(
        fresh.publish(2, b"post-crash", b"ok"),
        PublishOutcome::Published
    );
}

/// Deterministic mid-append kill: the child parks with a reserved,
/// half-written, uncommitted record (exactly the state a SIGKILL inside
/// the append leaves) and is then killed. The next attach must truncate
/// the reserve cursor back past that tail and keep every committed
/// entry.
#[test]
fn kill9_mid_append_truncates_uncommitted_tail() {
    let _serial = serial();
    let path = tmp_path("kill9-tail");
    let _c = Cleanup(path.clone());
    const COUNT: u64 = 25;
    let mut child = spawn_child("tail-then-hang", &path, &[("RQSHMEM_COUNT", COUNT.to_string())]);
    {
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "child never reached TAIL-READY");
            match lines.next() {
                Some(Ok(line)) if line.contains("TAIL-READY") => break,
                Some(Ok(_)) => continue,
                other => panic!("child stdout ended early: {other:?}"),
            }
        }
    }
    child.kill().expect("SIGKILL writer mid-append");
    child.wait().expect("reap writer");

    let seg = Segment::attach(&path, CAPACITY, V).expect("attach after crash");
    let r = seg.recovery();
    assert!(r.ran && !r.reinitialized);
    assert_eq!(r.live_entries, COUNT);
    assert_eq!(r.dropped_records, 0);
    assert!(
        r.reclaimed_bytes >= 8 * 1024,
        "uncommitted tail not truncated: {r:?}"
    );
    for i in 0..COUNT {
        let key = format!("tail-{i}");
        assert_eq!(
            seg.probe(1, key.as_bytes()).expect("committed entry lost"),
            val_for(key.as_bytes())
        );
    }
    // The reclaimed tail is usable again.
    assert_eq!(seg.publish(1, b"reuse", b"tail"), PublishOutcome::Published);
}

/// Conservation under real cross-process interleaving: two processes
/// publish disjoint random-sized sets concurrently; the segment must
/// end up holding exactly the union.
#[test]
fn interleaved_publishes_conserve_union() {
    let _serial = serial();
    use proptest::prelude::*;

    let mut runner = TestRunner::new(ProptestConfig::with_cases(8));
    runner.run(&(1u64..40, 1u64..40), |(n_a, n_b)| {
        let path = tmp_path("conserve");
        let _c = Cleanup(path.clone());
        let a = spawn_child(
            "pubset",
            &path,
            &[("RQSHMEM_COUNT", n_a.to_string()), ("RQSHMEM_PREFIX", "a".into())],
        );
        let b = spawn_child(
            "pubset",
            &path,
            &[("RQSHMEM_COUNT", n_b.to_string()), ("RQSHMEM_PREFIX", "b".into())],
        );
        for mut child in [a, b] {
            let status = child.wait().expect("reap publisher");
            prop_assert!(status.success(), "publisher child failed: {status:?}");
        }

        let seg = Segment::attach(&path, CAPACITY, V).expect("attach after publishers");
        let mut expected: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (prefix, n) in [("a", n_a), ("b", n_b)] {
            for i in 0..n {
                let key = format!("{prefix}-{i}").into_bytes();
                let val = val_for(&key);
                expected.insert(key, val);
            }
        }
        let mut found: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        seg.for_each(|pool, key, val, _stamp| {
            prop_assert_eq!(pool, 1);
            let prior = found.insert(key.to_vec(), val.to_vec());
            prop_assert!(prior.is_none(), "key indexed twice: {:?}", key);
        });
        prop_assert_eq!(found.len(), expected.len(), "union size mismatch");
        for (key, val) in &expected {
            prop_assert_eq!(found.get(key), Some(val), "missing {:?}", key);
        }
        prop_assert_eq!(seg.entries(), expected.len() as u64);
    });
}
