//! Property tests for the wire protocol: decoding is total.
//!
//! The server feeds every frame a client sends straight into
//! `Request::decode`, so the decoder is attack surface: arbitrary,
//! truncated or bit-flipped bytes must come back as `Err`, never as a
//! panic — and never as an allocation sized by attacker-declared
//! lengths. `Cursor::take` bounds-checks every declared length against
//! the actual payload before any allocation, and `read_frame` rejects
//! frame headers above `MAX_FRAME` before sizing a buffer; these tests
//! pin both properties from the outside.

use devil_serve::proto::{
    read_frame, QuarantinedPair, Request, Response, ServiceStats, SubmitMutant, MAX_FRAME,
};
use proptest::prelude::*;

/// If a decode accepts some bytes, re-encoding must reproduce them
/// exactly: the codec is canonical, so truncations or bit flips that
/// happen to parse cannot silently alias a different valid frame.
fn check_canonical(payload: &[u8]) {
    if let Ok(req) = Request::decode(payload) {
        assert_eq!(req.encode(), payload, "request decode not canonical");
    }
    if let Ok(rep) = Response::decode(payload) {
        assert_eq!(rep.encode(), payload, "response decode not canonical");
    }
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Submit(SubmitMutant {
            req_id: 42,
            scenario: "ide-boot".into(),
            plan: "mixed".into(),
            plan_seed: 7,
            file: "ide_piix4.c".into(),
            dead_line: 12,
            deadline_ms: 250,
            source: "int main(void) { return 0; }".into(),
        }),
        Request::Stats { req_id: 9 },
        Request::Drain { req_id: 10, grace_ms: 3_000 },
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Outcome {
            req_id: 1,
            outcome: devil_kernel::Outcome::Boot,
            detail: "clean boot".into(),
        },
        Response::Shed { req_id: 2 },
        Response::Stats {
            req_id: 3,
            stats: ServiceStats {
                accepted: 10,
                completed: 6,
                shed: 2,
                expired: 2,
                depth: 0,
                max_depth: 4,
                workers: 2,
                ledger_hits: 5,
                ledger_misses: 5,
                ledger_verified: 1,
                ledger_diverged: 0,
                compiles_resumed: 9,
                compiles_full: 1,
                quarantined: vec![QuarantinedPair {
                    file: "busmouse.c".into(),
                    fingerprint: 0xDEAD_BEEF,
                    strikes: 3,
                }],
            },
        },
        Response::Err { req_id: 4, message: "nope".into() },
        Response::Expired { req_id: 5 },
        Response::Draining { req_id: 6 },
    ]
}

proptest! {
    /// Arbitrary bytes never panic either decoder, and anything accepted
    /// re-encodes to the same bytes.
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_canonical(&bytes);
    }

    /// Every truncation of every valid encoding decodes without panicking
    /// (and, being non-canonical, is rejected).
    #[test]
    fn truncations_of_valid_frames_are_rejected(pick in 0usize..9, cut in 0usize..200) {
        let encodings: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(Request::encode)
            .chain(sample_responses().iter().map(Response::encode))
            .collect();
        let full = &encodings[pick % encodings.len()];
        let cut = cut % full.len().max(1);
        let truncated = &full[..cut];
        check_canonical(truncated);
        prop_assert!(Request::decode(truncated).is_err());
        prop_assert!(Response::decode(truncated).is_err());
    }

    /// Bit flips never panic and never alias a different valid frame.
    #[test]
    fn bit_flips_decode_totally(pick in 0usize..9, pos in 0usize..200, bit in 0u32..8) {
        let encodings: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(Request::encode)
            .chain(sample_responses().iter().map(Response::encode))
            .collect();
        let mut bytes = encodings[pick % encodings.len()].clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        check_canonical(&bytes);
    }

    /// A declared string length far beyond the payload is rejected before
    /// any allocation can be sized by it: the error arrives even though a
    /// buffer of the declared size would dwarf the actual frame.
    #[test]
    fn oversized_declared_lengths_are_rejected(declared in (MAX_FRAME as u64)..u32::MAX as u64) {
        // SUBMIT tag + req_id, then a scenario-string length prefix that
        // promises far more than the remaining 4 bytes.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&(declared as u32).to_le_bytes());
        payload.extend_from_slice(b"tiny");
        prop_assert!(Request::decode(&payload).is_err());
        prop_assert!(Response::decode(&payload).is_err());
    }

    /// Frame headers above the cap are rejected before the payload buffer
    /// is allocated.
    #[test]
    fn oversized_frame_headers_are_rejected(extra in 1u32..u32::MAX - MAX_FRAME) {
        let header = (MAX_FRAME + extra).to_le_bytes();
        let mut r = &header[..];
        prop_assert!(read_frame(&mut r).is_err());
    }
}
