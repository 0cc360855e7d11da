//! Pinned results. [`assert_golden`] compares a text body (a JSONL trace,
//! a JSON report) byte for byte with `tests/golden/<name>`;
//! [`assert_pinned`] compares named words (`f64::to_bits`, counts, hashes)
//! with the ledger `tests/golden/pins.txt`, one sorted
//! `<test>/<field> 0x<16 hex>` line per pin. With `BLESS=1`, read here and
//! nowhere else, both write what they were given instead: re-blessing is
//! one `BLESS=1 cargo test`, and the ledger's diff names the fields that
//! moved. Paths resolve to the workspace root from any member crate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::diff::diff_jsonl;

const REBLESS: &str = "if the change is intended, re-bless with: BLESS=1 cargo test";

/// Serialises ledger rewrites by the parallel tests of one binary.
static LEDGER: Mutex<()> = Mutex::new(());

fn golden(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = root.expect("crate sits two levels below the workspace root");
    root.join("tests/golden").join(name)
}

fn bless() -> bool {
    std::env::var_os("BLESS").is_some_and(|v| v == "1")
}

/// Checks `body` byte for byte against `tests/golden/<name>`, or writes
/// it there under `BLESS=1`. Panics if the golden is missing or differs,
/// showing the first divergent line.
pub fn assert_golden(name: &str, body: &str) {
    golden_at(&golden(name), bless(), body).unwrap_or_else(|e| panic!("{e}"));
}

/// [`assert_golden`] that never writes, for a golden another test owns.
pub fn assert_matches_golden(name: &str, body: &str) {
    golden_at(&golden(name), false, body).unwrap_or_else(|e| panic!("{e}"));
}

fn golden_at(path: &Path, bless: bool, body: &str) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}\n{REBLESS}", path.display());
    if bless {
        return std::fs::write(path, body).map_err(|e| fail(&e));
    }
    let golden = std::fs::read_to_string(path).map_err(|e| fail(&e))?;
    let moved = |d| fail(&format!("moved (left: golden, right: this run): {d}"));
    diff_jsonl(&golden, body).map_or(Ok(()), |d| Err(moved(d)))
}

/// A word a pin holds: an integer as itself, a float by its bits.
pub trait PinWord {
    fn pin_word(self) -> u64;
}

macro_rules! pin_word {
    ($($t:ty => $word:expr),+) => {
        $(impl PinWord for $t { fn pin_word(self) -> u64 { $word(self) } })+
    };
}
pin_word!(u64 => std::convert::identity, usize => |v| v as u64, f64 => f64::to_bits);

/// Pins fields of a struct under their own names, evaluating the struct
/// once: `pin_fields!("pool.", r.pool; warm_hits, reaped)` is
/// `vec![("pool.warm_hits".to_string(), r.pool.warm_hits), ("pool.reaped"…)]`,
/// each word through [`PinWord`](crate::golden::PinWord).
#[macro_export]
macro_rules! pin_fields {
    ($prefix:expr, $s:expr; $($field:ident),+ $(,)?) => {
        match &$s {
            s => vec![$((
                format!("{}{}", $prefix, stringify!($field)),
                $crate::golden::PinWord::pin_word(s.$field),
            )),+],
        }
    };
}

/// Checks `test`'s named pins against the ledger `tests/golden/pins.txt`,
/// or under `BLESS=1` rewrites `test`'s keys, dropping those it no longer
/// asserts. Panics naming every moved field with its ledger and new value
/// (`missing` on the side that lacks it), or at a bad ledger line.
pub fn assert_pinned<S: AsRef<str>>(test: &str, pins: &[(S, u64)]) {
    let pins: Vec<(&str, u64)> = pins.iter().map(|(f, v)| (f.as_ref(), *v)).collect();
    pinned_at(&golden("pins.txt"), bless(), test, &pins).unwrap_or_else(|e| panic!("{e}"));
}

fn pinned_at(ledger: &Path, bless: bool, test: &str, pins: &[(&str, u64)]) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", ledger.display());
    let got: BTreeMap<&str, u64> = pins.iter().copied().collect();
    if got.len() < pins.len() {
        return Err(fail(&format!("{test} asserts a field twice")));
    }
    let _guard = LEDGER.lock().unwrap_or_else(PoisonError::into_inner);
    let text = match std::fs::read_to_string(ledger) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        read => read.map_err(|e| fail(&e))?,
    };
    let mut pinned = parse_ledger(&text).map_err(|e| fail(&e))?;
    let prefix = format!("{test}/");
    if bless {
        pinned.retain(|k, _| !k.starts_with(&prefix));
        pinned.extend(got.iter().map(|(f, v)| (format!("{prefix}{f}"), *v)));
        let body = render(pinned.iter().map(|(k, v)| (k.as_str(), *v)));
        return std::fs::write(ledger, body).map_err(|e| fail(&e));
    }
    let old: BTreeMap<&str, u64> = (pinned.iter())
        .filter_map(|(k, v)| Some((k.strip_prefix(&prefix)?, *v)))
        .collect();
    let show = |v: Option<&u64>| v.map_or("missing".into(), |v| format!("{v:#018x}"));
    let fields: BTreeSet<&&str> = old.keys().chain(got.keys()).collect();
    let moved: Vec<String> = (fields.into_iter())
        .filter(|f| old.get(*f) != got.get(*f))
        .map(|f| format!("  {f}: {} -> {}", show(old.get(f)), show(got.get(f))))
        .collect();
    let (n, moved) = (moved.len(), moved.join("\n"));
    let msg = format!("{test}: {n} field(s) moved (ledger -> run):\n{moved}\n{REBLESS}");
    if n > 0 {
        return Err(fail(&msg));
    }
    Ok(())
}

/// One ledger line per pin, in the given order.
fn render<'a>(pins: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    pins.into_iter()
        .map(|(k, v)| format!("{k} {v:#018x}\n"))
        .collect()
}

/// Parses the ledger; an error names the 1-based line it is on.
fn parse_ledger(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut pinned = BTreeMap::new();
    for (n, line) in (1..).zip(text.split_terminator('\n')) {
        let entry = line.split_once(' ').and_then(|(key, hex)| {
            let digits = hex.strip_prefix("0x").filter(|d| d.len() == 16)?;
            let ok = key.contains('/') && digits.bytes().all(|b| b.is_ascii_hexdigit());
            Some((key, u64::from_str_radix(digits, 16).ok().filter(|_| ok)?))
        });
        let Some((key, v)) = entry else {
            return Err(format!("line {n}: want `<test>/<field> 0x<hex>`: {line:?}"));
        };
        if pinned.insert(key.to_string(), v).is_some() {
            return Err(format!("line {n}: duplicate key {key}"));
        }
    }
    Ok(pinned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh path per test: the tests share no file.
    fn temp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("aqua-golden-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Runs a check of test `t` that must fail, naming `want`.
    fn fails(ledger: &Path, bless: bool, pins: &[(&str, u64)], want: &str) -> String {
        let err = pinned_at(ledger, bless, "t", pins).unwrap_err();
        assert!(err.contains(want), "{want}: {err}");
        err
    }

    #[test]
    fn a_check_names_every_moved_missing_and_stale_field() {
        let l = temp_path("check");
        fails(&l, false, &[("a", 5)], "a: missing -> 0x0000000000000005");
        assert!(!l.exists(), "a check must not write the ledger");
        let abc = [("a", 1), ("b", 2), ("c", 3)];
        pinned_at(&l, true, "t", &abc).unwrap();
        pinned_at(&l, false, "t", &abc).unwrap();
        let err = fails(&l, false, &[("a", 1), ("b", 7)], "t: 2 field(s) moved");
        assert!(err.contains("b: 0x0000000000000002 -> 0x0000000000000007"));
        assert!(err.contains("c: 0x0000000000000003 -> missing") && !err.contains("a:"));
    }

    #[test]
    fn bless_rewrites_only_the_callers_keys_sorted() {
        let l = temp_path("bless");
        let old = render([("u/x", 1), ("t/old", 2), ("t/k", 3), ("t2/y", 4)]);
        std::fs::write(&l, old).unwrap();
        pinned_at(&l, true, "t", &[("new", 0xab), ("k", 9)]).unwrap();
        let want = render([("t/k", 9), ("t/new", 0xab), ("t2/y", 4), ("u/x", 1)]);
        assert_eq!(std::fs::read_to_string(&l).unwrap(), want);
        pinned_at(&l, false, "t2", &[("y", 4)]).unwrap();
        fails(&l, true, &[("a", 1), ("a", 2)], "t asserts a field twice");
    }

    #[test]
    fn malformed_and_duplicate_lines_name_their_line() {
        let ledger = temp_path("malformed");
        let one = render([("t/a", 1)]);
        let dup = render([("t/a", 1), ("u/b", 2), ("t/a", 1)]);
        for (text, want) in [
            (format!("{one}t/b 12\n"), "line 2: want"),
            ("t/a 0x000000000000001\n".into(), "line 1: want"),
            ("t/a 0x+000000000000001\n".into(), "line 1: want"),
            (render([("ta", 1)]), "line 1: want"),
            (one.replace('\n', "\r\n"), "line 1: want"),
            (format!("{one}\n{one}"), "line 2: want"),
            (dup, "line 3: duplicate key t/a"),
        ] {
            std::fs::write(&ledger, &text).unwrap();
            fails(&ledger, false, &[("a", 1)], want);
            fails(&ledger, true, &[("a", 1)], want);
            assert_eq!(std::fs::read_to_string(&ledger).unwrap(), text);
        }
    }

    #[test]
    fn pin_fields_names_each_word_and_evaluates_once() {
        // A second evaluation would find the iterator empty and panic.
        let mut ranges = std::iter::once(3usize..4);
        let got = crate::pin_fields!("r.", ranges.next().unwrap(); start, end);
        assert_eq!(got, [("r.start".to_string(), 3), ("r.end".to_string(), 4)]);
    }
}
