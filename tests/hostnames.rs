//! Hostnames are derived, not stored: `ServerMeta::hostname` rebuilds
//! `dcNN-rNNNN-uNN-sNNNNNN` from the server's placement and id. The
//! snapshot format still stores every name, so its bytes do not change,
//! and a reader treats a stored name as a check on the placement.

use dcfail::fleet::FleetBuilder;
use dcfail::sim::{RunOptions, Scenario};
use dcfail::trace::io::{fnv1a, snapshot, FNV_OFFSET};
use dcfail::trace::TraceError;

/// The fleet builder named each server
/// `format!("dc{dc:02}-r{rack:04}-u{pos:02}-s{id:06}")` while it placed
/// it: `dc` was the index of the data center it was filling, `rack` the
/// count of racks it had placed there before, `pos` the slot and `id` the
/// server's number. `Fleet::racks` lists the servers in that placement
/// order, so the expected names here come from the enumeration, not from
/// the fields the derived name reads.
#[test]
fn derived_hostnames_match_the_builder_format() {
    for (name, scenario) in [("small", Scenario::small()), ("medium", Scenario::medium())] {
        let fleet = FleetBuilder::new(scenario.config.fleet.clone())
            .seed(scenario.config.seed)
            .build()
            .expect("fleet builds");
        let mut buf = Vec::new();
        let mut named = 0;
        for (dc, racks) in fleet.racks().iter().enumerate() {
            for (rack, ids) in racks.iter().enumerate() {
                for id in ids {
                    let s = &fleet.servers()[id.index()];
                    let pos = s.position.raw();
                    let expected = format!("dc{dc:02}-r{rack:04}-u{pos:02}-s{:06}", id.raw());
                    assert_eq!(s.hostname(), expected, "{name} fleet");
                    buf.clear();
                    s.write_hostname(&mut buf);
                    assert_eq!(buf, expected.as_bytes(), "{name} fleet");
                    named += 1;
                }
            }
        }
        assert_eq!(
            named,
            fleet.servers().len(),
            "{name} fleet: every server placed once"
        );
    }
}

/// A snapshot whose stored hostname differs by one byte from the derived
/// name (digest re-sealed, so only the name check can catch it) loads as
/// a typed error naming the server, not a panic.
#[test]
fn a_flipped_hostname_byte_is_a_typed_error() {
    let trace = Scenario::small()
        .seed(3)
        .simulate(&RunOptions::default())
        .expect("small scenario runs");
    let image = snapshot::snapshot_to_bytes(&trace);
    assert!(snapshot::snapshot_from_bytes(&image).is_ok());
    for server in [0usize, trace.servers().len() / 2, trace.servers().len() - 1] {
        let name = trace.servers()[server].hostname();
        // Every name is interned once, as `len u32` + bytes.
        let mut needle = (name.len() as u32).to_le_bytes().to_vec();
        needle.extend_from_slice(name.as_bytes());
        let at = image
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("hostname in the dictionary")
            + 4;
        // Flip the last digit of the server id to another ASCII digit.
        let mut bytes = image.clone();
        bytes[at + name.len() - 1] ^= 0x01;
        let body = bytes.len() - 8;
        let digest = fnv1a(FNV_OFFSET, &bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&digest);
        match snapshot::snapshot_from_bytes(&bytes) {
            Err(TraceError::HostnameMismatch { server: s }) => {
                assert_eq!(s.index(), server)
            }
            other => panic!("server {server}: expected a hostname mismatch, got {other:?}"),
        }
    }
}
