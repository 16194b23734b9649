//! The class "world": loaded user classes plus the bootstrap library,
//! with hierarchy queries used by every startup phase.

use std::collections::BTreeMap;
use std::sync::Arc;

use classfuzz_classfile::{
    ClassAccess, ClassFile, ConstIndex, ConstantPool, FieldAccess, FieldType, MethodAccess,
    MethodDescriptor, MethodInfo,
};

use crate::decode::DecodedTable;
use crate::library::{shared_library, LibClass};
use crate::spec::VmSpec;

/// A user-class method as the checkers read it, built on the fly by
/// [`UserClass::method`]: its name, descriptor text, `Code` presence and
/// `throws` clause are read from the classfile only when asked for, so a
/// walk such as [`UserClass::find_method`] reads no more than it compares.
/// Its descriptor tree comes from the class's parse.
#[derive(Debug, Clone, Copy)]
pub struct Method<'c> {
    /// Index into `ClassFile::methods`.
    pub index: usize,
    /// Parsed descriptor, when parseable.
    pub desc: Option<&'c MethodDescriptor>,
    /// Access flags.
    pub access: MethodAccess,
    info: &'c MethodInfo,
    cp: &'c ConstantPool,
}

impl<'c> Method<'c> {
    /// Method name; `$badname` when the name entry does not resolve.
    pub fn name(&self) -> &'c str {
        member_name(self.cp, self.info.name)
    }

    /// Raw descriptor text; empty when the entry does not resolve.
    pub fn desc_text(&self) -> &'c str {
        member_desc(self.cp, self.info.descriptor)
    }

    /// Whether a `Code` attribute is present.
    pub fn has_code(&self) -> bool {
        self.info.code().is_some()
    }

    /// The `throws`-clause class names, dangling entries skipped.
    pub fn exceptions(&self) -> impl Iterator<Item = &'c str> {
        let (cp, names) = (self.cp, self.info.declared_exceptions());
        names.iter().filter_map(move |&e| cp.class_name_str(e))
    }
}

/// A member's name: `$badname` when the entry does not resolve.
fn member_name(cp: &ConstantPool, index: ConstIndex) -> &str {
    cp.utf8_text(index).unwrap_or("$badname")
}

/// A member's descriptor text: empty when the entry does not resolve.
fn member_desc(cp: &ConstantPool, index: ConstIndex) -> &str {
    cp.utf8_text(index).unwrap_or("")
}

/// The index of the first key equal to an earlier one. Reads each key once
/// into `seen` (cleared first), which allocates only for two or more keys.
fn first_repeat<'a>(
    keys: impl ExactSizeIterator<Item = (&'a str, &'a str)>,
    seen: &mut Vec<(&'a str, &'a str)>,
) -> Option<usize> {
    if keys.len() < 2 {
        return None;
    }
    seen.clear();
    for (i, key) in keys.enumerate() {
        if seen.contains(&key) {
            return Some(i);
        }
        seen.push(key);
    }
    None
}

/// A user-class field, built on the fly by [`UserClass::fields`]: its name
/// and descriptor text borrowed from the constant pool, its type from the
/// class's parse.
#[derive(Debug, Clone, Copy)]
pub struct Field<'c> {
    /// Field name; `$badname` when the name entry does not resolve.
    pub name: &'c str,
    /// Raw descriptor text; empty when the entry does not resolve.
    pub desc_text: &'c str,
    /// Parsed type, when parseable.
    pub ty: Option<&'c FieldType>,
    /// Access flags.
    pub access: FieldAccess,
}

/// A user class admitted to the world (parsed, not yet checked).
///
/// The classfile is the one copy of the class's member names, descriptor
/// texts and class references: [`methods`](UserClass::methods),
/// [`fields`](UserClass::fields), [`super_name`](UserClass::super_name)
/// and [`interfaces`](UserClass::interfaces) borrow them from its constant
/// pool. The class keeps only what the pool cannot answer by reference: its
/// own name, the parsed descriptor trees, the duplicate-member facts and the
/// decoded-method table.
#[derive(Debug, Clone)]
pub struct UserClass {
    /// The parsed classfile.
    pub cf: ClassFile,
    /// Binary name (resolved from `this_class`; `$badclass{N}` when the
    /// entry does not resolve).
    pub name: String,
    /// Parsed method descriptors, one per `cf.methods` entry.
    descs: Vec<Option<MethodDescriptor>>,
    /// Parsed field types, one per `cf.fields` entry.
    field_types: Vec<Option<FieldType>>,
    /// The first field whose (name, descriptor) text repeats an earlier
    /// field's; see [`duplicate_field`](UserClass::duplicate_field).
    duplicate_field: Option<usize>,
    /// The same for methods.
    duplicate_method: Option<usize>,
    /// Per-method decoded-code table, filled lazily on a method's first
    /// verification or execution and read by the verifier and the
    /// interpreter alike. `Arc`-shared: cloning the class (or sharing its
    /// preparse handle across the five profiles) shares the slots, which is
    /// sound because a decoded method is a pure function of `cf`.
    pub decoded: DecodedTable,
}

impl UserClass {
    /// Summarizes a parsed classfile: resolves the class's own name,
    /// parses every member descriptor and finds the first repeated field
    /// and method. Never fails: unresolvable names surface as placeholders
    /// for the checkers to reject.
    pub fn summarize(cf: ClassFile) -> UserClass {
        let cp = &cf.constant_pool;
        let name = cf
            .this_class_name()
            .unwrap_or_else(|| format!("$badclass{}", cf.this_class.0));
        let descs = cf
            .methods
            .iter()
            .map(|m| MethodDescriptor::parse(cp.utf8_text(m.descriptor).unwrap_or("")).ok())
            .collect();
        let field_types = cf
            .fields
            .iter()
            .map(|f| FieldType::parse(cp.utf8_text(f.descriptor).unwrap_or("")).ok())
            .collect();
        let (duplicate_field, duplicate_method) = {
            // One key buffer serves both scans; it allocates only when a
            // class has two fields or two methods.
            let widest = cf.fields.len().max(cf.methods.len());
            let mut seen = Vec::with_capacity(if widest < 2 { 0 } else { widest });
            let key = |name, desc| (member_name(cp, name), member_desc(cp, desc));
            (
                first_repeat(
                    cf.fields.iter().map(|f| key(f.name, f.descriptor)),
                    &mut seen,
                ),
                first_repeat(
                    cf.methods.iter().map(|m| key(m.name, m.descriptor)),
                    &mut seen,
                ),
            )
        };
        let decoded = DecodedTable::for_methods(cf.methods.len());
        UserClass {
            cf,
            name,
            descs,
            field_types,
            duplicate_field,
            duplicate_method,
            decoded,
        }
    }

    /// The index of the first field whose (name, descriptor) text equals
    /// an earlier field's, unresolvable names and descriptors read as
    /// their placeholders. A pure function of the classfile, found once by
    /// [`summarize`](UserClass::summarize); each profile decides what a
    /// repeat means.
    pub fn duplicate_field(&self) -> Option<usize> {
        self.duplicate_field
    }

    /// [`duplicate_field`](UserClass::duplicate_field) for methods.
    pub fn duplicate_method(&self) -> Option<usize> {
        self.duplicate_method
    }

    /// Method `index`, in declaration order; `None` past the last.
    pub fn method(&self, index: usize) -> Option<Method<'_>> {
        let info = self.cf.methods.get(index)?;
        Some(Method {
            index,
            desc: self.descs.get(index)?.as_ref(),
            access: info.access,
            info,
            cp: &self.cf.constant_pool,
        })
    }

    /// The methods, in declaration order.
    pub fn methods(&self) -> impl Iterator<Item = Method<'_>> {
        (0..self.cf.methods.len()).filter_map(|i| self.method(i))
    }

    /// The fields, in declaration order.
    pub fn fields(&self) -> impl Iterator<Item = Field<'_>> {
        let (cp, infos) = (&self.cf.constant_pool, &self.cf.fields);
        infos
            .iter()
            .zip(&self.field_types)
            .map(move |(info, ty)| Field {
                name: member_name(cp, info.name),
                desc_text: member_desc(cp, info.descriptor),
                ty: ty.as_ref(),
                access: info.access,
            })
    }

    /// Finds a method by name and descriptor text.
    pub fn find_method(&self, name: &str, desc: &str) -> Option<Method<'_>> {
        self.methods()
            .find(|m| m.name() == name && m.desc_text() == desc)
    }

    /// Superclass name, when resolvable.
    pub fn super_name(&self) -> Option<&str> {
        self.cf.constant_pool.class_name_str(self.cf.super_class)
    }

    /// Interface names, dangling entries skipped.
    pub fn interfaces(&self) -> impl Iterator<Item = &str> {
        let (cp, names) = (&self.cf.constant_pool, &self.cf.interfaces);
        names.iter().filter_map(move |&i| cp.class_name_str(i))
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
/// Every lookup and hierarchy walk borrows its names from the user
/// classes' constant pools and the library's `&'static str`s: a walk
/// copies no name.
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
        self.user_class(name).is_some() || self.library.contains_key(name)
    }

    /// Library lookup.
    pub fn lib(&self, name: &str) -> Option<&LibClass> {
        self.library.get(name)
    }

    /// User-class lookup.
    pub fn user_class(&self, name: &str) -> Option<&UserClass> {
        self.user.iter().find(|c| c.name == name).map(Arc::as_ref)
    }

    /// Is `name` declared final? `None` when the class is unknown.
    pub fn is_final(&self, name: &str) -> Option<bool> {
        if let Some(u) = self.user_class(name) {
            return Some(u.cf.access.contains(ClassAccess::FINAL));
        }
        self.library.get(name).map(LibClass::is_final)
    }

    /// Is `name` an interface? `None` when unknown.
    pub fn is_interface(&self, name: &str) -> Option<bool> {
        if let Some(u) = self.user_class(name) {
            return Some(u.cf.access.contains(ClassAccess::INTERFACE));
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
            return u.super_name();
        }
        self.library.get(name).and_then(|c| c.super_class)
    }

    /// Direct superinterfaces (empty when the class is unknown).
    pub fn interfaces_of(&self, name: &str) -> impl Iterator<Item = &str> {
        let user = self.user_class(name);
        let lib = user.is_none().then(|| self.library.get(name)).flatten();
        user.into_iter()
            .flat_map(UserClass::interfaces)
            .chain(lib.into_iter().flat_map(|c| c.interfaces.iter().copied()))
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
    fn duplicate_facts_compare_text_and_placeholders() {
        use classfuzz_classfile::{ConstIndex, FieldAccess, MethodAccess};
        use classfuzz_jimple::{IrField, IrMethod, JType};
        let field = |name: &str| IrField {
            access: FieldAccess::PUBLIC,
            name: name.into(),
            ty: JType::Int,
            constant_value: None,
        };
        let method = |name: &str, params| {
            IrMethod::abstract_method(MethodAccess::PUBLIC, name, params, None)
        };
        let class = |fields: Vec<IrField>, methods: Vec<IrMethod>| {
            let mut c = IrClass::new("dup/C");
            for f in fields {
                c.fields.push(f);
            }
            for m in methods {
                c.methods.push(m);
            }
            lower_class(&c)
        };
        let facts = |cf: ClassFile| {
            let u = UserClass::summarize(cf);
            (u.duplicate_field(), u.duplicate_method())
        };

        // Fewer than two members repeat nothing.
        assert_eq!(facts(class(vec![], vec![])), (None, None));
        assert_eq!(
            facts(class(vec![field("a")], vec![method("m", vec![])])),
            (None, None)
        );
        // The first repeat, not the first member repeated; an overload is
        // no repeat.
        let fields = vec![field("a"), field("b"), field("b"), field("a")];
        let methods = vec![
            method("m", vec![]),
            method("m", vec![JType::Int]),
            method("n", vec![]),
            method("m", vec![JType::Int]),
        ];
        assert_eq!(facts(class(fields, methods)), (Some(2), Some(3)));

        // Two Utf8 entries with equal text are one name.
        let mut cf = class(vec![field("a"), field("b")], vec![]);
        cf.fields[1].name = cf.constant_pool.push_utf8("a");
        assert_ne!(cf.fields[0].name, cf.fields[1].name);
        assert_eq!(facts(cf), (Some(1), None));

        // Names that do not resolve, past the pool, at the null index or
        // at a non-Utf8 entry, all read as `$badname`.
        let mut cf = class(
            vec![field("a"), field("b")],
            vec![method("m", vec![]), method("n", vec![])],
        );
        cf.fields[0].name = ConstIndex(u16::MAX);
        cf.fields[1].name = cf.this_class;
        cf.methods[0].name = ConstIndex(0);
        cf.methods[1].name = ConstIndex(u16::MAX);
        assert_eq!(facts(cf.clone()), (Some(1), Some(1)));
        // Under different descriptors they differ; two descriptors that do
        // not resolve both read as empty and match again.
        cf.fields[1].descriptor = ConstIndex(u16::MAX);
        assert_eq!(facts(cf.clone()), (None, Some(1)));
        cf.fields[0].descriptor = cf.this_class;
        assert_eq!(facts(cf), (Some(1), Some(1)));
    }

    #[test]
    fn summarize_survives_bad_descriptors() {
        use classfuzz_classfile::{Attribute, ConstIndex, FieldAccess, MethodAccess};
        use classfuzz_jimple::{IrField, IrMethod, JType};
        let mut c = IrClass::new("demo/Bad");
        c.interfaces.push("java/lang/Runnable".into());
        for name in ["m", "n"] {
            let mut m = IrMethod::abstract_method(
                MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
                name,
                vec![],
                None,
            );
            m.exceptions.push("java/lang/RuntimeException".into());
            c.methods.push(m);
        }
        for name in ["f", "g"] {
            c.fields.push(IrField {
                access: FieldAccess::PUBLIC,
                name: name.into(),
                ty: JType::Int,
                constant_value: None,
            });
        }
        let mut cf = lower_class(&c);
        // Two ways for an index not to resolve: past the pool, and to an
        // entry of the wrong kind (the class's own `Class` constant).
        let dangling = ConstIndex(u16::MAX);
        let not_utf8 = cf.this_class;
        // Corrupt the method descriptor.
        let bad = cf.constant_pool.utf8("(((");
        cf.methods[0].descriptor = bad;
        cf.methods[1].name = dangling;
        cf.methods[1].descriptor = not_utf8;
        cf.fields[0].name = not_utf8;
        cf.fields[1].descriptor = dangling;
        for a in &mut cf.methods[0].attributes {
            if let Attribute::Exceptions(e) = a {
                e.insert(0, dangling);
            }
        }
        cf.interfaces.insert(0, dangling);
        cf.this_class = dangling;
        cf.super_class = ConstIndex(0);
        let u = UserClass::summarize(cf);

        assert_eq!(u.name, "$badclass65535");
        assert_eq!(u.super_name(), None);
        assert_eq!(u.interfaces().collect::<Vec<_>>(), ["java/lang/Runnable"]);

        let m = u.method(0).unwrap();
        assert_eq!((m.name(), m.desc_text()), ("m", "((("));
        assert!(m.desc.is_none());
        assert_eq!(
            m.exceptions().collect::<Vec<_>>(),
            ["java/lang/RuntimeException"]
        );
        let n = u.method(1).unwrap();
        assert_eq!((n.name(), n.desc_text()), ("$badname", ""));
        assert!(n.desc.is_none());
        assert!(u.method(2).is_none());
        assert_eq!(u.methods().count(), 2);

        let fields: Vec<_> = u.fields().collect();
        assert_eq!((fields[0].name, fields[0].desc_text), ("$badname", "I"));
        assert_eq!(fields[0].ty, Some(&FieldType::Int));
        assert_eq!((fields[1].name, fields[1].desc_text), ("g", ""));
        assert!(fields[1].ty.is_none());

        let w = World::new(&VmSpec::hotspot9(), vec![u]);
        assert_eq!(
            w.interfaces_of("$badclass65535").collect::<Vec<_>>(),
            ["java/lang/Runnable"]
        );
        assert_eq!(w.super_of("$badclass65535"), None);
    }
}
