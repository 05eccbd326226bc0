//! The `--serve` request decoder, `fusion_cli::json::Value::parse`, on
//! arbitrary strings and at scale.
//!
//! Property: any string — ASCII, multi-byte, astral, quotes, backslashes
//! and control characters mixed — decodes back to itself from the
//! spelling `escape` emits, and from a spelling with every character (or
//! every other one) written as `\uXXXX`, astral characters as surrogate
//! pairs.
//!
//! Numbers: the decoder accepts only the JSON number grammar, so every
//! number the serve responder writes (integers and `f64`s with `{}`) must
//! still decode to the value written.
//!
//! Scale: a `scan` request carrying a source of more than 4 MiB is
//! decoded and answered through `serve_loop`. The decoder copies string
//! contents a run at a time, so this takes milliseconds; a decoder that
//! re-validated the rest of the line for every character would take
//! hours on it.

use fusion_cli::json::{escape, Value};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::io::Cursor;

/// One character of the given class, picked by `n`: printable ASCII,
/// control, `"` or `\`, two-byte, three-byte (no surrogates), astral.
fn char_of(class: u32, n: u32) -> char {
    let c = match class {
        0 => 0x20 + n % 0x5f,
        1 => [n % 0x20, 0x7f][(n % 2) as usize],
        2 => [u32::from(b'"'), u32::from(b'\\')][(n % 2) as usize],
        3 => 0x80 + n % (0x800 - 0x80),
        4 => {
            let c = 0x800 + n % (0x1_0000 - 0x800 - 0x800);
            if c >= 0xD800 {
                c + 0x800
            } else {
                c
            }
        }
        _ => 0x1_0000 + n % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(c).expect("every class avoids surrogates")
}

/// `c` as one `\uXXXX` escape, or a surrogate pair of them; the hex case
/// alternates with `upper`.
fn u_escape(c: char, upper: bool, out: &mut String) {
    let mut units = [0u16; 2];
    for unit in c.encode_utf16(&mut units) {
        let _ = if upper {
            write!(out, "\\u{unit:04X}")
        } else {
            write!(out, "\\u{unit:04x}")
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_spelling_decodes_to_the_original(
        picks in prop::collection::vec((0u32..6, any::<u32>()), 0..48)
    ) {
        let s: String = picks.iter().map(|&(class, n)| char_of(class, n)).collect();
        let plain = Value::parse(&format!("\"{}\"", escape(&s)));
        prop_assert_eq!(plain, Ok(Value::Str(s.clone())));

        let (mut all_u, mut mixed) = (String::from("\""), String::from("\""));
        for (i, c) in s.chars().enumerate() {
            u_escape(c, i % 3 == 0, &mut all_u);
            if i % 2 == 0 {
                u_escape(c, i % 4 == 0, &mut mixed);
            } else {
                mixed.push_str(&escape(&c.to_string()));
            }
        }
        all_u.push('"');
        mixed.push('"');
        prop_assert_eq!(Value::parse(&all_u), Ok(Value::Str(s.clone())));
        prop_assert_eq!(Value::parse(&mixed), Ok(Value::Str(s.clone())));

        // Inside a request object, as `serve_loop` sees it.
        let req = format!("{{\"cmd\": \"scan\", \"source\": \"{}\"}}", escape(&s));
        let v = Value::parse(&req).unwrap();
        prop_assert_eq!(v.get("source").and_then(Value::as_str), Some(s.as_str()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn responder_numbers_round_trip(bits in any::<u64>(), n in any::<u64>()) {
        // Timings are `f64`s and counters integers, both written with `{}`.
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let doc = format!("{{\"ms\": {x}, \"n\": {n}, \"frac\": {}}}", n as f64 / 1e3);
        let v = Value::parse(&doc).unwrap();
        prop_assert_eq!(v.get("ms").and_then(Value::as_f64), Some(x));
        prop_assert_eq!(v.get("n").and_then(Value::as_f64), Some(n as f64));
        prop_assert_eq!(v.get("frac").and_then(Value::as_f64), Some(n as f64 / 1e3));
    }
}

/// Every number in `v`, depth first.
fn numbers(v: &Value, out: &mut Vec<f64>) {
    match v {
        Value::Num(x) => out.push(*x),
        Value::Arr(items) => items.iter().for_each(|i| numbers(i, out)),
        Value::Obj(members) => members.iter().for_each(|(_, m)| numbers(m, out)),
        _ => {}
    }
}

#[test]
fn serve_responses_decode_and_their_numbers_round_trip() {
    let program = "extern fn deref(p);\n\
        fn f(x) { let q = null; let r = 1; if (x > 3) { r = q; } deref(r); return 0; }\n";
    let request = format!(
        "{{\"cmd\": \"scan\", \"source\": \"{}\"}}\n{{\"cmd\": \"stats\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n",
        escape(program)
    );
    let mut out = Vec::new();
    let opts = fusion_cli::Options {
        serve: true,
        ..Default::default()
    };
    assert_eq!(
        fusion_cli::serve::serve_loop(&opts, Cursor::new(request), &mut out),
        0
    );
    let text = String::from_utf8(out).unwrap();
    let mut all = Vec::new();
    for line in text.lines() {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}");
        numbers(&v, &mut all);
    }
    assert!(all.len() > 10, "{text}");
    for x in all {
        assert_eq!(Value::parse(&format!("{x}")), Ok(Value::Num(x)));
    }
}

#[test]
fn multi_mebibyte_scan_request_is_decoded_and_answered() {
    let program = "extern fn deref(p);\n\
        fn f(x) { let q = null; let r = 1; if (x > 3) { r = q; } deref(r); return 0; }\n";
    // Comment lines with quotes, backslashes, multi-byte and astral text,
    // so the escaped request alternates plain runs and escapes.
    let filler = "// pad \"quoted\" \\back\\ caf\u{e9} \u{4e2d}\u{6587} \u{1F600}\tend\n";
    let mut source = String::from(program);
    while source.len() < 4 << 20 {
        source.push_str(filler);
    }
    let request = format!(
        "{{\"cmd\": \"scan\", \"source\": \"{}\"}}\n{{\"cmd\": \"shutdown\"}}\n",
        escape(&source)
    );

    let mut out = Vec::new();
    let opts = fusion_cli::Options {
        serve: true,
        ..Default::default()
    };
    let code = fusion_cli::serve::serve_loop(&opts, Cursor::new(request), &mut out);
    assert_eq!(code, 0);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert_eq!(lines[0].get("ok"), Some(&Value::Bool(true)), "{text}");
    assert_eq!(lines[0].get("event").and_then(Value::as_str), Some("scan"));
    let findings = lines[0]
        .get("report")
        .and_then(|r| r.get("findings"))
        .and_then(Value::as_array)
        .unwrap();
    let cold = fusion_cli::scan_source(program, &fusion_cli::Options::default()).unwrap();
    assert_eq!(findings.len(), cold.findings.len());
    assert!(!findings.is_empty());
    assert_eq!(
        lines[1].get("event").and_then(Value::as_str),
        Some("shutdown")
    );
}
