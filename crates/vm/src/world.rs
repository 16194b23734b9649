//! The class "world": loaded user classes plus the bootstrap library,
//! with hierarchy queries used by every startup phase.

use std::collections::BTreeMap;
use std::sync::Arc;

use classfuzz_classfile::{ClassFile, FieldAccess, FieldType, MethodAccess, MethodDescriptor};

use crate::decode::DecodedTable;
use crate::library::{shared_library, LibClass};
use crate::spec::VmSpec;

/// Summary of a user-class method, with descriptor pre-parsed.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Index into `ClassFile::methods`.
    pub index: usize,
    /// Method name (may be garbage after mutation).
    pub name: String,
    /// Raw descriptor text.
    pub desc_text: String,
    /// Parsed descriptor, when parseable.
    pub desc: Option<MethodDescriptor>,
    /// Access flags.
    pub access: MethodAccess,
    /// Whether a `Code` attribute is present.
    pub has_code: bool,
    /// Resolved `throws`-clause class names (dangling entries dropped).
    pub exceptions: Vec<String>,
}

/// Summary of a user-class field.
#[derive(Debug, Clone)]
pub struct FieldSummary {
    /// Field name.
    pub name: String,
    /// Raw descriptor text.
    pub desc_text: String,
    /// Parsed type, when parseable.
    pub ty: Option<FieldType>,
    /// Access flags.
    pub access: FieldAccess,
}

/// A user class admitted to the world (parsed, not yet checked).
#[derive(Debug, Clone)]
pub struct UserClass {
    /// The parsed classfile.
    pub cf: ClassFile,
    /// Binary name (resolved from `this_class`).
    pub name: String,
    /// Superclass name, when resolvable.
    pub super_name: Option<String>,
    /// Interface names (dangling entries dropped).
    pub interfaces: Vec<String>,
    /// Method summaries, in declaration order.
    pub methods: Vec<MethodSummary>,
    /// Field summaries, in declaration order.
    pub fields: Vec<FieldSummary>,
    /// Per-method decoded-code table, filled lazily on a method's first
    /// verification or execution and read by the verifier and the
    /// interpreter alike. `Arc`-shared: cloning the class (or sharing its
    /// preparse handle across the five profiles) shares the slots, which is
    /// sound because a decoded method is a pure function of `cf`.
    pub decoded: DecodedTable,
}

impl UserClass {
    /// Summarizes a parsed classfile. Never fails: unresolvable names
    /// surface as placeholders for the checkers to reject.
    pub fn summarize(cf: ClassFile) -> UserClass {
        let cp = &cf.constant_pool;
        let name = cf
            .this_class_name()
            .unwrap_or_else(|| format!("$badclass{}", cf.this_class.0));
        let super_name = cf.super_class_name();
        let interfaces = cf.interface_names();
        let methods = cf
            .methods
            .iter()
            .enumerate()
            .map(|(index, m)| {
                let mname = cp.utf8_text(m.name).unwrap_or("$badname").to_string();
                let desc_text = cp.utf8_text(m.descriptor).unwrap_or("").to_string();
                MethodSummary {
                    index,
                    name: mname,
                    desc: MethodDescriptor::parse(&desc_text).ok(),
                    desc_text,
                    access: m.access,
                    has_code: m.code().is_some(),
                    exceptions: m
                        .declared_exceptions()
                        .iter()
                        .filter_map(|&e| cp.class_name(e))
                        .collect(),
                }
            })
            .collect();
        let fields = cf
            .fields
            .iter()
            .map(|f| {
                let fname = cp.utf8_text(f.name).unwrap_or("$badname").to_string();
                let desc_text = cp.utf8_text(f.descriptor).unwrap_or("").to_string();
                FieldSummary {
                    name: fname,
                    ty: FieldType::parse(&desc_text).ok(),
                    desc_text,
                    access: f.access,
                }
            })
            .collect();
        let decoded = DecodedTable::for_methods(cf.methods.len());
        UserClass {
            cf,
            name,
            super_name,
            interfaces,
            methods,
            fields,
            decoded,
        }
    }

    /// Finds a method summary by name and descriptor text.
    pub fn find_method(&self, name: &str, desc: &str) -> Option<&MethodSummary> {
        self.methods
            .iter()
            .find(|m| m.name == name && m.desc_text == desc)
    }
}

/// The complete class environment of a run: an immutable, process-shared
/// bootstrap library plus a per-run user-class overlay.
///
/// The library half never changes after it is built (one build per
/// [`JreGeneration`](crate::JreGeneration) per process, see
/// [`shared_library`]), so constructing a `World` is an *overlay*
/// operation — a handful of `UserClass` handles — not a library rebuild.
///
/// Every lookup and hierarchy walk borrows its names from the user-class
/// summaries and the library's `&'static str`s: a walk copies no name.
#[derive(Debug)]
pub struct World {
    /// Bootstrap library for the VM's JRE generation (shared, immutable).
    pub library: Arc<BTreeMap<String, LibClass>>,
    /// User classes on the classpath (the test class plus any extras), in
    /// overlay order; a name resolves to the first class carrying it.
    /// `Arc`ed so the overlay shares the one summarized copy produced by
    /// [`preparse`](crate::preparse) instead of deep-cloning it per run.
    pub user: Vec<Arc<UserClass>>,
}

/// The most superclass hops a chain walk follows.
const MAX_SUPER_HOPS: usize = 64;

impl World {
    /// Builds the world for `spec` with the given user classes, sharing
    /// the process-wide cached library for `spec`'s JRE generation.
    pub fn new(spec: &VmSpec, user_classes: Vec<UserClass>) -> World {
        World::with_library(
            shared_library(spec.jre),
            user_classes.into_iter().map(Arc::new).collect(),
        )
    }

    /// Builds the world as an overlay over an explicit base library — the
    /// hot-path constructor [`Jvm`](crate::Jvm) uses with its per-instance
    /// cached handle (and benchmarks use with a deliberately fresh build).
    /// Taking `Arc<UserClass>` keeps the overlay a move of the caller's
    /// vector: no classfile and no name is copied to build a world.
    pub fn with_library(
        library: Arc<BTreeMap<String, LibClass>>,
        user_classes: Vec<Arc<UserClass>>,
    ) -> World {
        World {
            library,
            user: user_classes,
        }
    }

    /// Does any class of this name exist (user or library)?
    pub fn exists(&self, name: &str) -> bool {
        self.user_class_arc(name).is_some() || self.library.contains_key(name)
    }

    /// Library lookup.
    pub fn lib(&self, name: &str) -> Option<&LibClass> {
        self.library.get(name)
    }

    /// User-class lookup.
    pub fn user_class(&self, name: &str) -> Option<&UserClass> {
        self.user_class_arc(name).map(Arc::as_ref)
    }

    /// User-class lookup returning the shared handle, so callers that
    /// need an owned class (the interpreter's dispatch) pay a refcount
    /// bump instead of a deep classfile clone.
    pub fn user_class_arc(&self, name: &str) -> Option<&Arc<UserClass>> {
        self.user.iter().find(|c| c.name == name)
    }

    /// Is `name` declared final? `None` when the class is unknown.
    pub fn is_final(&self, name: &str) -> Option<bool> {
        if let Some(u) = self.user_class(name) {
            return Some(
                u.cf.access
                    .contains(classfuzz_classfile::ClassAccess::FINAL),
            );
        }
        self.library.get(name).map(LibClass::is_final)
    }

    /// Is `name` an interface? `None` when unknown.
    pub fn is_interface(&self, name: &str) -> Option<bool> {
        if let Some(u) = self.user_class(name) {
            return Some(
                u.cf.access
                    .contains(classfuzz_classfile::ClassAccess::INTERFACE),
            );
        }
        self.library.get(name).map(LibClass::is_interface)
    }

    /// Is `name` an internal (encapsulated) library class?
    pub fn is_internal(&self, name: &str) -> bool {
        self.library.get(name).map(|c| c.internal).unwrap_or(false)
    }

    /// Direct superclass name, when the class is known.
    pub fn super_of(&self, name: &str) -> Option<&str> {
        if let Some(u) = self.user_class(name) {
            return u.super_name.as_deref();
        }
        self.library.get(name).and_then(|c| c.super_class)
    }

    /// Direct superinterfaces (empty when the class is unknown).
    pub fn interfaces_of(&self, name: &str) -> impl Iterator<Item = &str> {
        let (user, lib): (&[String], &[&'static str]) = match self.user_class(name) {
            Some(u) => (&u.interfaces, &[]),
            None => match self.library.get(name) {
                Some(c) => (&[], &c.interfaces),
                None => (&[], &[]),
            },
        };
        user.iter().map(String::as_str).chain(lib.iter().copied())
    }

    /// Writes `name` and then its superclasses into `chain`, stopping at
    /// the root, before a repeat (a circular hierarchy, which the checker
    /// reports) or after [`MAX_SUPER_HOPS`] hops; returns the length.
    fn chain_into<'w>(&'w self, name: &'w str, chain: &mut [&'w str; MAX_SUPER_HOPS + 1]) -> usize {
        chain[0] = name;
        let mut len = 1;
        while len <= MAX_SUPER_HOPS {
            match self.super_of(chain[len - 1]) {
                Some(s) if !chain[..len].contains(&s) => {
                    chain[len] = s;
                    len += 1;
                }
                _ => break,
            }
        }
        len
    }

    /// Subtype test: is `sub` assignable to `sup`? Arrays are not modeled
    /// here (the verifier handles them structurally); unknown classes are
    /// related only to `java/lang/Object` and themselves.
    pub fn is_subtype(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "java/lang/Object" {
            return true;
        }
        let mut work = vec![sub];
        let mut seen = Vec::new();
        while let Some(cur) = work.pop() {
            if seen.contains(&cur) {
                continue;
            }
            seen.push(cur);
            if cur == sup {
                return true;
            }
            work.extend(self.super_of(cur));
            work.extend(self.interfaces_of(cur));
        }
        false
    }

    /// The nearest common superclass of two reference types (interfaces
    /// collapse to `java/lang/Object`, as in HotSpot's verifier merge).
    /// Borrows its answer from `a`, `b` or the world.
    pub fn common_super<'w>(&'w self, a: &'w str, b: &'w str) -> &'w str {
        if a == b {
            return a;
        }
        let mut a_chain = [""; MAX_SUPER_HOPS + 1];
        let a_len = self.chain_into(a, &mut a_chain);
        let mut b_chain = [""; MAX_SUPER_HOPS + 1];
        let b_len = self.chain_into(b, &mut b_chain);
        a_chain[..a_len]
            .iter()
            .find(|c| b_chain[..b_len].contains(c))
            .copied()
            .unwrap_or("java/lang/Object")
    }

    /// Does a class in a circular inheritance relationship with itself
    /// exist starting from `name`? The chain either ends or enters a
    /// cycle; Floyd's tortoise and hare tells which without a visited set.
    pub fn has_circularity(&self, name: &str) -> bool {
        let mut slow = name;
        let mut fast = name;
        loop {
            fast = match self.super_of(fast).and_then(|s| self.super_of(s)) {
                Some(f) => f,
                None => return false,
            };
            slow = match self.super_of(slow) {
                Some(s) => s,
                None => return false,
            };
            if slow == fast {
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_jimple::{lower::lower_class, IrClass};

    fn world_with(classes: Vec<IrClass>) -> World {
        let spec = VmSpec::hotspot9();
        let user = classes
            .into_iter()
            .map(|c| UserClass::summarize(lower_class(&c)))
            .collect();
        World::new(&spec, user)
    }

    #[test]
    fn library_and_user_coexist() {
        let w = world_with(vec![IrClass::new("demo/A")]);
        assert!(w.exists("demo/A"));
        assert!(w.exists("java/lang/Object"));
        assert!(!w.exists("no/Such"));
        assert_eq!(w.is_interface("demo/A"), Some(false));
        assert_eq!(w.is_interface("java/util/Map"), Some(true));
        assert_eq!(w.is_final("java/lang/String"), Some(true));
    }

    #[test]
    fn subtype_walks_supers_and_interfaces() {
        let mut sub = IrClass::new("demo/Sub");
        sub.super_class = Some("java/lang/Thread".into());
        let w = world_with(vec![sub]);
        assert!(w.is_subtype("demo/Sub", "java/lang/Thread"));
        assert!(w.is_subtype("demo/Sub", "java/lang/Runnable"));
        assert!(w.is_subtype("demo/Sub", "java/lang/Object"));
        assert!(!w.is_subtype("java/lang/Thread", "demo/Sub"));
        assert!(w.is_subtype(
            "java/lang/ArrayIndexOutOfBoundsException",
            "java/lang/RuntimeException"
        ));
    }

    #[test]
    fn common_super_of_exceptions() {
        let w = world_with(vec![]);
        assert_eq!(
            w.common_super(
                "java/lang/ArithmeticException",
                "java/lang/NullPointerException"
            ),
            "java/lang/RuntimeException"
        );
        assert_eq!(
            w.common_super("java/lang/String", "java/lang/Thread"),
            "java/lang/Object"
        );
    }

    #[test]
    fn circularity_detected() {
        let mut a = IrClass::new("cyc/A");
        a.super_class = Some("cyc/B".into());
        let mut b = IrClass::new("cyc/B");
        b.super_class = Some("cyc/A".into());
        let w = world_with(vec![a, b]);
        assert!(w.has_circularity("cyc/A"));
        assert!(!w.has_circularity("java/lang/String"));
    }

    #[test]
    fn summarize_survives_bad_descriptors() {
        let mut c = IrClass::new("demo/Bad");
        c.methods.push(classfuzz_jimple::IrMethod::abstract_method(
            classfuzz_classfile::MethodAccess::PUBLIC | classfuzz_classfile::MethodAccess::ABSTRACT,
            "m",
            vec![],
            None,
        ));
        let mut cf = lower_class(&c);
        // Corrupt the method descriptor.
        let bad = cf.constant_pool.utf8("(((");
        cf.methods[0].descriptor = bad;
        let u = UserClass::summarize(cf);
        assert!(u.methods[0].desc.is_none());
        assert_eq!(u.methods[0].desc_text, "(((");
    }
}
