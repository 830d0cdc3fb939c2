//! Identifier interning.
//!
//! The `Box`+`String` AST was the front end's allocation hot spot: every
//! identifier token allocated a fresh `String` in the lexer, and each of
//! the parser/preprocessor/CFG layers that clone AST or token data paid
//! for a full copy again. A [`Name`] is a shared `Arc<str>`; a per-file
//! [`Interner`] (the file's symbol table) hands out one allocation per
//! *distinct* identifier, so token clones, macro expansion, AST clones
//! into `FileAnalysis::functions`, and CFG lowering all become
//! reference-count bumps. An `Arc<str>` is used rather than a `u32` index so a `Name`
//! stays self-describing (no symbol-table handle to thread through
//! spans, serde, or patch synthesis) and files can drop their interner
//! after parsing without invalidating names.
//!
//! `Name` compares, hashes, and orders by content (with a pointer
//! fast path for equality), so it is a drop-in key anywhere `String`
//! was used before; serde writes it as a plain string, keeping every
//! on-disk format byte-compatible.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An interned identifier: cheap to clone, compared by content.
#[derive(Clone, Eq)]
pub struct Name(Arc<str>);

impl Name {
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        // Names from one interner share storage; fall back to content so
        // names from different files still compare equal.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == &*other.0
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s hash so `Borrow<str>` lookups work.
        self.0.hash(state)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Default for Name {
    fn default() -> Name {
        Name(Arc::from(""))
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

impl From<&Name> for String {
    fn from(n: &Name) -> String {
        n.as_str().to_string()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.as_str().to_string()
    }
}

impl serde::Serialize for Name {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }

    fn write_json(&self, w: &mut serde::Writer<'_>) {
        w.str(self.as_str());
    }
}

impl serde::Deserialize for Name {
    fn from_value(value: &serde::Value) -> Result<Name, serde::Error> {
        Ok(Name::from(String::from_value(value)?))
    }
}

/// A per-file symbol table: one shared allocation per distinct string.
#[derive(Default)]
pub struct Interner {
    set: HashSet<Arc<str>>,
}

impl Interner {
    pub fn new() -> Interner {
        Interner::default()
    }

    pub fn intern(&mut self, s: &str) -> Name {
        if let Some(existing) = self.set.get(s) {
            return Name(existing.clone());
        }
        let arc: Arc<str> = Arc::from(s);
        self.set.insert(arc.clone());
        Name(arc)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_storage() {
        let mut i = Interner::new();
        let a = i.intern("smp_wmb");
        let b = i.intern("smp_wmb");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(i.len(), 1);
        let c = i.intern("smp_rmb");
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn names_compare_by_content_across_interners() {
        let a = Interner::new().intern("flag");
        let b = Interner::new().intern("flag");
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn name_is_a_str_drop_in() {
        let n = Name::from("payload");
        assert_eq!(n, "payload");
        assert_eq!("payload", n);
        assert_eq!(n, String::from("payload"));
        assert_eq!(n.as_str(), "payload");
        assert!(n.starts_with("pay"));
        assert_eq!(format!("{n}"), "payload");
        assert_eq!(format!("{n:?}"), "\"payload\"");
        let mut set = std::collections::HashMap::new();
        set.insert(Name::from("k"), 1);
        assert_eq!(set.get("k"), Some(&1));
    }

    #[test]
    fn name_serde_is_a_plain_string() {
        use serde::{Deserialize, Serialize};
        let n = Name::from("ring");
        assert_eq!(n.to_value(), serde::Value::String("ring".into()));
        let back = Name::from_value(&n.to_value()).unwrap();
        assert_eq!(back, n);
    }
}
