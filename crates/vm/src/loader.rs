//! Creation & loading: classfile format checking (Table 1, row 1).
//!
//! Everything here can reject a class with `ClassFormatError`,
//! `UnsupportedClassVersionError`, or (for unresolvable hierarchy names)
//! `NoClassDefFoundError` — and *which* checks run is VM policy, which is
//! where the paper's Problems 1 and 4 live.

use classfuzz_classfile::{ClassAccess, FieldAccess, MethodAccess};

use crate::cov::Cov;
use crate::outcome::{JvmErrorKind, Outcome, Phase};
use crate::spec::VmSpec;
use crate::world::{Method, UserClass};
use crate::{probe, probe_branch};

type CheckResult = Result<(), Outcome>;

fn reject(kind: JvmErrorKind, msg: impl Into<String>) -> CheckResult {
    Err(Outcome::rejected(Phase::Loading, kind, msg))
}

/// Runs the complete format check of `class` under `spec`.
///
/// # Errors
///
/// Returns the rejecting [`Outcome`] (always in the loading phase).
pub fn format_check(class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> CheckResult {
    probe!(cov);
    check_version(class, spec, cov)?;
    check_class_shape(class, spec, cov)?;
    check_fields(class, spec, cov)?;
    check_methods(class, spec, cov)?;
    Ok(())
}

fn check_version(class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> CheckResult {
    probe!(cov);
    if probe_branch!(cov, class.cf.major_version > spec.max_class_version) {
        return reject(
            JvmErrorKind::UnsupportedClassVersionError,
            format!(
                "{} : unsupported major.minor version {}.{}",
                class.name, class.cf.major_version, class.cf.minor_version
            ),
        );
    }
    if probe_branch!(cov, class.cf.major_version < 45) {
        return reject(JvmErrorKind::ClassFormatError, "class version below 45.0");
    }
    Ok(())
}

/// Is `name` a legal binary class name (slash form)?
fn legal_class_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('$')
        && name
            .split('/')
            .all(|seg| !seg.is_empty() && seg.chars().all(|c| c != ';' && c != '[' && c != '.'))
}

fn legal_member_name(name: &str) -> bool {
    !name.is_empty()
        && name != "$badname"
        && name.chars().all(|c| !matches!(c, '.' | ';' | '[' | '/'))
}

fn check_class_shape(class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> CheckResult {
    probe!(cov);
    if probe_branch!(cov, !legal_class_name(&class.name)) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!("illegal class name {:?}", class.name),
        );
    }
    let acc = class.cf.access;
    let is_interface = acc.contains(ClassAccess::INTERFACE);
    if probe_branch!(
        cov,
        acc.contains(ClassAccess::FINAL) && acc.contains(ClassAccess::ABSTRACT)
    ) {
        return reject(
            JvmErrorKind::ClassFormatError,
            "class cannot be both final and abstract",
        );
    }
    if is_interface {
        probe!(cov);
        if probe_branch!(cov, acc.contains(ClassAccess::FINAL)) {
            return reject(JvmErrorKind::ClassFormatError, "interface cannot be final");
        }
        // Version-dependent checking (the paper's §3.1.1 note: "HotSpot
        // accepts some dubious/illegal constructs in a version 46 class but
        // rejects them if they appear in a version 51 class"): the
        // interface-ACC_ABSTRACT discipline only exists for classfiles of
        // major version ≥ 49.
        if probe_branch!(
            cov,
            spec.interface_members_must_be_public
                && class.cf.major_version >= 49
                && !acc.contains(ClassAccess::ABSTRACT)
        ) {
            return reject(
                JvmErrorKind::ClassFormatError,
                "interface must have its ACC_ABSTRACT flag set",
            );
        }
        // Problem 4: an interface's superclass must be java/lang/Object —
        // syntactically checkable. GIJ "fails in catching this kind of
        // illegal inheritance structures".
        let super_ok = class.super_name() == Some("java/lang/Object");
        if probe_branch!(cov, spec.interface_must_extend_object && !super_ok) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!(
                    "the superclass of interface {} must be java/lang/Object",
                    class.name
                ),
            );
        }
    } else if probe_branch!(
        cov,
        class.super_name().is_none() && class.name != "java/lang/Object"
    ) {
        return reject(JvmErrorKind::ClassFormatError, "missing superclass entry");
    }
    Ok(())
}

fn check_fields(class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> CheckResult {
    probe!(cov);
    let is_interface = class.cf.access.contains(ClassAccess::INTERFACE);
    for (i, f) in class.fields().enumerate() {
        probe!(cov);
        if probe_branch!(cov, !legal_member_name(f.name)) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("illegal field name {:?}", f.name),
            );
        }
        if probe_branch!(cov, f.ty.is_none()) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("field {} has invalid descriptor {:?}", f.name, f.desc_text),
            );
        }
        let visibility = [
            FieldAccess::PUBLIC,
            FieldAccess::PRIVATE,
            FieldAccess::PROTECTED,
        ]
        .iter()
        .filter(|&&v| f.access.contains(v))
        .count();
        if probe_branch!(cov, visibility > 1) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("field {} has conflicting visibility flags", f.name),
            );
        }
        if probe_branch!(
            cov,
            f.access.contains(FieldAccess::FINAL) && f.access.contains(FieldAccess::VOLATILE)
        ) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("field {} is both final and volatile", f.name),
            );
        }
        // Problem 4: interface fields must be public static final —
        // everywhere but GIJ.
        let iface_shape = f.access.contains(FieldAccess::PUBLIC)
            && f.access.contains(FieldAccess::STATIC)
            && f.access.contains(FieldAccess::FINAL);
        if probe_branch!(
            cov,
            is_interface && spec.interface_members_must_be_public && !iface_shape
        ) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("interface field {} must be public static final", f.name),
            );
        }
        // Problem 4: duplicate fields — GIJ accepts them.
        let dup = class
            .fields()
            .take(i)
            .any(|g| (g.name, g.desc_text) == (f.name, f.desc_text));
        if probe_branch!(cov, dup && !spec.allow_duplicate_fields) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("duplicate field name&signature: {}", f.name),
            );
        }
    }
    Ok(())
}

fn check_methods(class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> CheckResult {
    probe!(cov);
    for m in class.methods() {
        probe!(cov);
        let name = m.name();
        let dup = class
            .methods()
            .take(m.index)
            .any(|g| g.name() == name && g.desc_text() == m.desc_text());
        if probe_branch!(cov, dup) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("duplicate method name&signature: {name}"),
            );
        }
        check_one_method(class, m, spec, cov)?;
    }
    Ok(())
}

fn check_one_method(class: &UserClass, m: Method<'_>, spec: &VmSpec, cov: &mut Cov) -> CheckResult {
    probe!(cov);
    let is_interface = class.cf.access.contains(ClassAccess::INTERFACE);
    let class_abstract = class.cf.access.contains(ClassAccess::ABSTRACT);
    let name = m.name();
    let named_clinit = name == "<clinit>";
    let is_initializer = named_clinit && m.access.contains(MethodAccess::STATIC);

    // Problem 1 (J9): any method *named* <clinit> must carry a Code
    // attribute, whatever its flags.
    if probe_branch!(
        cov,
        named_clinit && spec.clinit_requires_code && !m.has_code()
    ) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!(
                "no Code attribute specified for non-native, non-abstract method; \
                 class={}, method=<clinit>{}, pc=0",
                class.name,
                m.desc_text()
            ),
        );
    }
    // Problem 1 (HotSpot): other methods named <clinit> are of no
    // consequence — skip every remaining check.
    if probe_branch!(
        cov,
        named_clinit && !is_initializer && spec.clinit_flags_exempt
    ) {
        return Ok(());
    }

    if probe_branch!(
        cov,
        !legal_member_name(name) && !named_clinit && name != "<init>"
    ) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!("illegal method name {name:?}"),
        );
    }
    if probe_branch!(cov, m.desc.is_none()) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!("method {name} has invalid descriptor {:?}", m.desc_text()),
        );
    }
    let visibility = [
        MethodAccess::PUBLIC,
        MethodAccess::PRIVATE,
        MethodAccess::PROTECTED,
    ]
    .iter()
    .filter(|&&v| m.access.contains(v))
    .count();
    if probe_branch!(cov, visibility > 1) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!("method {name} has conflicting visibility flags"),
        );
    }

    let is_abstract = m.access.contains(MethodAccess::ABSTRACT);
    let is_native = m.access.contains(MethodAccess::NATIVE);
    if is_abstract {
        probe!(cov);
        let bad = MethodAccess::FINAL
            | MethodAccess::NATIVE
            | MethodAccess::PRIVATE
            | MethodAccess::STATIC
            | MethodAccess::SYNCHRONIZED
            | MethodAccess::STRICT;
        if probe_branch!(cov, m.access.intersects(bad) && !is_initializer) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!("abstract method {name} has incompatible flags"),
            );
        }
        // §3.3: J9/GIJ reject an abstract method in a concrete class at
        // load time; HotSpot defers.
        if probe_branch!(
            cov,
            spec.reject_abstract_in_concrete && !class_abstract && !is_interface
        ) {
            return reject(
                JvmErrorKind::ClassFormatError,
                format!(
                    "abstract method {} in non-abstract class {}",
                    name, class.name
                ),
            );
        }
    }

    // Code-presence discipline.
    if probe_branch!(cov, !m.has_code() && !is_abstract && !is_native) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!(
                "absent Code attribute in method {} that is not native or abstract",
                name
            ),
        );
    }
    if probe_branch!(cov, m.has_code() && (is_abstract || is_native)) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!("Code attribute in native or abstract method {name}"),
        );
    }

    // Problem 4: <init> signature discipline — GIJ skips it entirely.
    if probe_branch!(cov, name == "<init>" && spec.strict_init_signature) {
        if probe_branch!(cov, is_interface) {
            return reject(
                JvmErrorKind::ClassFormatError,
                "interface cannot declare a constructor",
            );
        }
        let bad = MethodAccess::STATIC
            | MethodAccess::FINAL
            | MethodAccess::SYNCHRONIZED
            | MethodAccess::NATIVE
            | MethodAccess::ABSTRACT;
        if probe_branch!(cov, m.access.intersects(bad)) {
            return reject(
                JvmErrorKind::ClassFormatError,
                "method <init> must not be static, final, synchronized, native or abstract",
            );
        }
        let returns_void = m.desc.map(|d| d.ret.is_none()).unwrap_or(false);
        if probe_branch!(cov, !returns_void) {
            return reject(
                JvmErrorKind::ClassFormatError,
                "method <init> must return void",
            );
        }
    }

    // Problem 4: interface methods must be public and abstract — GIJ skips.
    if probe_branch!(
        cov,
        is_interface
            && spec.interface_members_must_be_public
            && !named_clinit
            && !(m.access.contains(MethodAccess::PUBLIC) && is_abstract)
    ) {
        return reject(
            JvmErrorKind::ClassFormatError,
            format!("interface method {name} must be public and abstract"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_jimple::{lower::lower_class, IrClass, IrMethod, JType};

    fn check(class: &IrClass, spec: &VmSpec) -> CheckResult {
        let user = UserClass::summarize(lower_class(class));
        format_check(&user, spec, &mut Cov::disabled())
    }

    fn kind(r: CheckResult) -> JvmErrorKind {
        match r.unwrap_err() {
            Outcome::Rejected { error, .. } => error.kind,
            other => panic!("expected rejection, got {other}"),
        }
    }

    #[test]
    fn valid_class_passes_everywhere() {
        let c = IrClass::with_hello_main("ok/Fine", "hi");
        for spec in VmSpec::all_five() {
            assert!(
                check(&c, &spec).is_ok(),
                "{} rejected a valid class",
                spec.name
            );
        }
    }

    #[test]
    fn version_gate() {
        let mut c = IrClass::new("v/High");
        c.major_version = 53;
        assert_eq!(
            kind(check(&c, &VmSpec::hotspot7())),
            JvmErrorKind::UnsupportedClassVersionError
        );
        assert!(check(&c, &VmSpec::hotspot9()).is_ok());
    }

    #[test]
    fn problem1_clinit_without_code() {
        // Figure 2: public abstract <clinit> with no Code attribute.
        let mut c = IrClass::with_hello_main("M1436188543", "Completed!");
        c.methods.push(IrMethod::abstract_method(
            MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
            "<clinit>",
            vec![],
            None,
        ));
        assert!(
            check(&c, &VmSpec::hotspot8()).is_ok(),
            "HotSpot: of no consequence"
        );
        assert_eq!(
            kind(check(&c, &VmSpec::j9())),
            JvmErrorKind::ClassFormatError
        );
    }

    #[test]
    fn problem4_interface_member_flags() {
        use classfuzz_classfile::ClassAccess;
        let mut c = IrClass::new("p/I");
        c.access = ClassAccess::PUBLIC | ClassAccess::INTERFACE | ClassAccess::ABSTRACT;
        // Non-public, non-abstract interface method.
        c.methods.push(IrMethod::abstract_method(
            MethodAccess::PROTECTED | MethodAccess::ABSTRACT,
            "m",
            vec![JType::Int],
            None,
        ));
        assert_eq!(
            kind(check(&c, &VmSpec::hotspot8())),
            JvmErrorKind::ClassFormatError
        );
        assert!(
            check(&c, &VmSpec::gij()).is_ok(),
            "GIJ accepts lax interface members"
        );
    }

    #[test]
    fn problem4_init_signature() {
        let mut c = IrClass::new("p/C");
        c.methods.push(IrMethod {
            access: MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
            name: "<init>".into(),
            params: vec![JType::Int, JType::Int, JType::Int, JType::Boolean],
            ret: None,
            exceptions: vec![],
            body: None,
        });
        // HotSpot/J9 reject the <init> signature outright.
        assert_eq!(
            kind(check(&c, &VmSpec::hotspot8())),
            JvmErrorKind::ClassFormatError
        );
        // GIJ skips the <init> discipline, but its abstract-in-concrete
        // check still fires on a concrete class — make the class abstract
        // to isolate the <init> signature policy.
        use classfuzz_classfile::ClassAccess;
        c.access = ClassAccess::PUBLIC | ClassAccess::ABSTRACT | ClassAccess::SUPER;
        assert!(check(&c, &VmSpec::gij()).is_ok());
        assert_eq!(
            kind(check(&c, &VmSpec::j9())),
            JvmErrorKind::ClassFormatError
        );
    }

    #[test]
    fn problem4_duplicate_fields() {
        use classfuzz_classfile::FieldAccess;
        let mut c = IrClass::with_hello_main("p/Dup", "x");
        for _ in 0..2 {
            c.fields.push(classfuzz_jimple::IrField {
                access: FieldAccess::PUBLIC,
                name: "f".into(),
                ty: JType::Int,
                constant_value: None,
            });
        }
        assert_eq!(
            kind(check(&c, &VmSpec::hotspot8())),
            JvmErrorKind::ClassFormatError
        );
        assert!(check(&c, &VmSpec::gij()).is_ok());
    }

    #[test]
    fn interface_extending_class_is_format_error_except_gij() {
        use classfuzz_classfile::ClassAccess;
        let mut c = IrClass::new("p/BadIface");
        c.access = ClassAccess::PUBLIC | ClassAccess::INTERFACE | ClassAccess::ABSTRACT;
        c.super_class = Some("java/lang/Exception".into());
        assert_eq!(
            kind(check(&c, &VmSpec::hotspot8())),
            JvmErrorKind::ClassFormatError
        );
        assert_eq!(
            kind(check(&c, &VmSpec::j9())),
            JvmErrorKind::ClassFormatError
        );
        assert!(check(&c, &VmSpec::gij()).is_ok());
    }

    #[test]
    fn final_volatile_field_rejected() {
        use classfuzz_classfile::FieldAccess;
        let mut c = IrClass::new("p/FV");
        c.fields.push(classfuzz_jimple::IrField {
            access: FieldAccess::FINAL | FieldAccess::VOLATILE,
            name: "f".into(),
            ty: JType::Int,
            constant_value: None,
        });
        assert_eq!(
            kind(check(&c, &VmSpec::hotspot9())),
            JvmErrorKind::ClassFormatError
        );
    }

    #[test]
    fn unresolvable_member_names_are_illegal_everywhere() {
        use classfuzz_classfile::{ConstIndex, FieldAccess};
        let mut c = IrClass::with_hello_main("p/Names", "x");
        c.fields.push(classfuzz_jimple::IrField {
            access: FieldAccess::PUBLIC,
            name: "f".into(),
            ty: JType::Int,
            constant_value: None,
        });
        let mut field = lower_class(&c);
        field.fields[0].name = ConstIndex(u16::MAX);
        c.fields.clear();
        let mut method = lower_class(&c);
        let last = method.methods.len() - 1;
        method.methods[last].name = ConstIndex(u16::MAX);
        for (cf, what) in [(field, "field"), (method, "method")] {
            let user = UserClass::summarize(cf);
            for spec in VmSpec::all_five() {
                match format_check(&user, &spec, &mut Cov::disabled()) {
                    Err(Outcome::Rejected { error, .. }) => {
                        assert_eq!(error.kind, JvmErrorKind::ClassFormatError);
                        assert_eq!(error.message, format!("illegal {what} name \"$badname\""));
                    }
                    other => panic!("{} accepted a dangling {what} name: {other:?}", spec.name),
                }
            }
        }
    }
}
