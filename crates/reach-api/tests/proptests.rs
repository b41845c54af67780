//! Property-based tests of the wire protocol.

use proptest::prelude::*;
use reach_api::proto::{
    decode, decode_response_frame, encode, encode_response_frame, FrameCodec, ReachRequest,
    ReachResponse, ServerTiming,
};
use uof_telemetry::TraceContext;

/// Characters mixed into the generated strings: the JSON delimiters, every
/// escape the writer emits (named and `\u00XX`), and 2- and 4-byte UTF-8.
const SPECIAL: [char; 12] =
    ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{e9}', '\u{1F600}'];

/// A string from `(pick, char)` pairs: a pick below `SPECIAL.len()` takes
/// that special character, anything else the arbitrary one (any scalar
/// below the surrogates — every control character and 1- to 3-byte UTF-8).
fn mixed(picks: &[(u8, char)]) -> String {
    picks.iter().map(|&(k, c)| SPECIAL.get(usize::from(k)).copied().unwrap_or(c)).collect()
}

/// `s` as a JSON string literal with **every** character written as a
/// `\u` escape (surrogate pairs above the BMP), hex case alternating.
fn all_unicode_escapes(s: &str) -> String {
    let mut out = String::from("\"");
    for (i, unit) in s.encode_utf16().enumerate() {
        if i % 2 == 0 {
            out.push_str(&format!("\\u{unit:04x}"));
        } else {
            out.push_str(&format!("\\u{unit:04X}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #[test]
    fn request_round_trips(
        v in 0u32..5,
        locations in prop::collection::vec("[A-Z]{2}", 0..10),
        interests in prop::collection::vec(any::<u32>(), 0..30),
        has_id in any::<bool>(),
        raw_id in any::<u64>(),
        has_trace in any::<bool>(),
        trace_id in any::<u64>(),
        parent_span_id in any::<u64>(),
    ) {
        let id = has_id.then_some(raw_id);
        let trace = has_trace.then_some(TraceContext { trace_id, parent_span_id });
        let request =
            ReachRequest {
                v,
                locations,
                interests,
                nested: None,
                stats: None,
                snapshot: None,
                sampled: None,
                id,
                shard: None,
                trace,
            };
        let frame = encode(&request);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back, request);
    }

    #[test]
    fn codec_reassembles_arbitrary_chunking(
        requests in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..10), 1..6),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        let originals: Vec<ReachRequest> = requests
            .into_iter()
            .map(|interests| ReachRequest {
                v: 1,
                locations: vec!["US".into()],
                interests,
                nested: None,
                stats: None,
                snapshot: None,
                sampled: None,
                id: None,
                shard: None,
                trace: None,
            })
            .collect();
        for r in &originals {
            wire.extend(encode(r));
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            codec.feed(piece);
            while let Some(frame) = codec.next_frame().unwrap() {
                decoded.push(decode::<ReachRequest>(&frame).unwrap());
            }
        }
        prop_assert_eq!(decoded, originals);
    }

    #[test]
    fn responses_round_trip(reported in any::<u64>(), floored: bool, warn: bool) {
        let response = ReachResponse::Reach { reported, floored, too_narrow_warning: warn };
        let frame = encode(&response);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back, response);
    }

    #[test]
    fn response_frames_round_trip_any_id_and_timing(
        reported in any::<u64>(),
        has_id in any::<bool>(),
        raw_id in any::<u64>(),
        has_timing in any::<bool>(),
        queue_ns in any::<u64>(),
        handler_ns in any::<u64>(),
        cache_hit in any::<bool>(),
        engine_ns in any::<u64>(),
    ) {
        let id = has_id.then_some(raw_id);
        let timing =
            has_timing.then_some(ServerTiming { queue_ns, handler_ns, cache_hit, engine_ns });
        let response =
            ReachResponse::Reach { reported, floored: false, too_narrow_warning: false };
        let frame = encode_response_frame(id, timing.as_ref(), &response);
        let back = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(back.server_timing, timing);
        prop_assert_eq!(back.response, response);
    }

    #[test]
    fn arbitrary_strings_round_trip_through_the_codec(
        message in prop::collection::vec((0u8..24, any::<char>()), 0..40),
        location in prop::collection::vec((0u8..24, any::<char>()), 0..12),
        id in any::<u64>(),
    ) {
        let message = mixed(&message);
        let location = mixed(&location);
        // A response string, on the plain and the id-spliced frame.
        let response = ReachResponse::Error { message: message.clone() };
        let frame = encode(&response);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(&back, &response);
        let frame = encode_response_frame(Some(id), None, &response);
        let back = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back.id, Some(id));
        prop_assert_eq!(&back.response, &response);
        // A request string, next to a plain one.
        let request = ReachRequest::scalar(vec![location, "US".into()], vec![1, 2]);
        let frame = encode(&request);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back, request);
        // Hand-written `\u` escapes decode to the same string.
        let raw = format!(r#"{{"kind":"error","message":{}}}"#, all_unicode_escapes(&message));
        let back: ReachResponse = decode(raw.as_bytes()).unwrap();
        prop_assert_eq!(back, ReachResponse::Error { message });
    }

    #[test]
    fn garbage_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut codec = FrameCodec::new();
        codec.feed(&data);
        // Draining frames and decoding them must never panic.
        while let Ok(Some(frame)) = codec.next_frame() {
            let _ = decode::<ReachRequest>(&frame);
        }
    }
}
