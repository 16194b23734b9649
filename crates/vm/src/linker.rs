//! Linking: hierarchy resolution, preparation-time checks, and (policy-
//! dependent) `throws`-clause resolution (Table 1, row 2).

use crate::cov::Cov;
use crate::outcome::{JvmErrorKind, Outcome, Phase};
use crate::spec::{FinalSuperError, VmSpec};
use crate::world::{UserClass, World};
use crate::{probe, probe_branch};

type LinkResult = Result<(), Outcome>;

/// Resolves and checks the class hierarchy of `class`.
///
/// # Errors
///
/// * `NoClassDefFoundError` / `ClassCircularityError` — loading phase;
/// * `IncompatibleClassChangeError` / `VerifyError` (final superclass,
///   malformed hierarchy) — linking phase;
/// * `IllegalAccessError` / `NoClassDefFoundError` from `throws`-clause
///   resolution — linking phase (HotSpot-style eager resolution only).
pub fn link_check(world: &World, class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> LinkResult {
    probe!(cov);
    check_hierarchy(world, class, spec, cov)?;
    if probe_branch!(cov, spec.resolve_throws_clauses) {
        resolve_throws(world, class, spec, cov)?;
    }
    Ok(())
}

fn check_hierarchy(world: &World, class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> LinkResult {
    probe!(cov);
    if let Some(super_name) = class.super_name() {
        probe!(cov);
        if probe_branch!(cov, !world.exists(super_name)) {
            return Err(Outcome::rejected(
                Phase::Loading,
                JvmErrorKind::NoClassDefFoundError,
                format!("superclass not found: {super_name}"),
            ));
        }
        if probe_branch!(cov, world.has_circularity(&class.name)) {
            return Err(Outcome::rejected(
                Phase::Loading,
                JvmErrorKind::ClassCircularityError,
                class.name.clone(),
            ));
        }
        if probe_branch!(cov, world.is_interface(super_name) == Some(true)) {
            return Err(Outcome::rejected(
                Phase::Linking,
                JvmErrorKind::IncompatibleClassChangeError,
                format!(
                    "class {} has interface {super_name} as super class",
                    class.name
                ),
            ));
        }
        // The EnumEditor case: final superclass. HotSpot reports
        // VerifyError, others IncompatibleClassChangeError.
        if probe_branch!(cov, world.is_final(super_name) == Some(true)) {
            let kind = match spec.final_super_error {
                FinalSuperError::Verify => JvmErrorKind::VerifyError,
                FinalSuperError::IncompatibleClassChange => {
                    JvmErrorKind::IncompatibleClassChangeError
                }
            };
            return Err(Outcome::rejected(
                Phase::Linking,
                kind,
                format!("cannot inherit from final class {super_name}"),
            ));
        }
        if probe_branch!(
            cov,
            spec.reject_internal_access && world.is_internal(super_name)
        ) {
            return Err(Outcome::rejected(
                Phase::Linking,
                JvmErrorKind::IllegalAccessError,
                format!("superclass {super_name} is not accessible"),
            ));
        }
    }
    for iface in class.interfaces() {
        probe!(cov);
        if probe_branch!(cov, !world.exists(iface)) {
            return Err(Outcome::rejected(
                Phase::Loading,
                JvmErrorKind::NoClassDefFoundError,
                format!("interface not found: {iface}"),
            ));
        }
        if probe_branch!(cov, world.is_interface(iface) == Some(false)) {
            return Err(Outcome::rejected(
                Phase::Linking,
                JvmErrorKind::IncompatibleClassChangeError,
                format!("class {} can't implement class {iface}", class.name),
            ));
        }
        if probe_branch!(cov, spec.reject_internal_access && world.is_internal(iface)) {
            return Err(Outcome::rejected(
                Phase::Linking,
                JvmErrorKind::IllegalAccessError,
                format!("interface {iface} is not accessible"),
            ));
        }
    }
    Ok(())
}

/// Problem 3: HotSpot resolves the classes named in `throws` clauses during
/// linking; a missing class or an encapsulated internal class is exposed
/// here — J9 and GIJ never look.
fn resolve_throws(world: &World, class: &UserClass, spec: &VmSpec, cov: &mut Cov) -> LinkResult {
    probe!(cov);
    for m in class.methods() {
        for exc in m.exceptions() {
            probe!(cov);
            if probe_branch!(cov, !world.exists(exc)) {
                return Err(Outcome::rejected(
                    Phase::Linking,
                    JvmErrorKind::NoClassDefFoundError,
                    format!("{exc} (declared thrown by {}.{})", class.name, m.name()),
                ));
            }
            if probe_branch!(cov, spec.reject_internal_access && world.is_internal(exc)) {
                return Err(Outcome::rejected(
                    Phase::Linking,
                    JvmErrorKind::IllegalAccessError,
                    format!(
                        "tried to access class {exc} from class {} (declared thrown by {})",
                        class.name,
                        m.name()
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use classfuzz_jimple::{lower::lower_class, IrClass};

    fn link(class: &IrClass, spec: &VmSpec) -> LinkResult {
        let user = UserClass::summarize(lower_class(class));
        let world = World::new(spec, vec![user]);
        let user = world.user_class(&class.name).unwrap();
        link_check(&world, user, spec, &mut Cov::disabled())
    }

    fn kind(r: LinkResult) -> (Phase, JvmErrorKind) {
        match r.unwrap_err() {
            Outcome::Rejected { phase, error } => (phase, error.kind),
            other => panic!("expected rejection, got {other}"),
        }
    }

    #[test]
    fn missing_superclass_is_ncdfe_at_loading() {
        let mut c = IrClass::new("p/A");
        c.super_class = Some("no/Such".into());
        assert_eq!(
            kind(link(&c, &VmSpec::hotspot9())),
            (Phase::Loading, JvmErrorKind::NoClassDefFoundError)
        );
    }

    #[test]
    fn final_superclass_error_kind_differs_by_vendor() {
        // jre/beans/AbstractEditor is final from JRE 8 on.
        let mut c = IrClass::new("p/Editor");
        c.super_class = Some("jre/beans/AbstractEditor".into());
        assert!(link(&c, &VmSpec::hotspot7()).is_ok(), "open class in JRE 7");
        assert_eq!(
            kind(link(&c, &VmSpec::hotspot8())),
            (Phase::Linking, JvmErrorKind::VerifyError)
        );
        assert_eq!(
            kind(link(&c, &VmSpec::j9())),
            (Phase::Linking, JvmErrorKind::IncompatibleClassChangeError)
        );
    }

    #[test]
    fn superclass_interface_rejected() {
        let mut c = IrClass::new("p/B");
        c.super_class = Some("java/util/Map".into());
        assert_eq!(
            kind(link(&c, &VmSpec::hotspot9())),
            (Phase::Linking, JvmErrorKind::IncompatibleClassChangeError)
        );
    }

    #[test]
    fn implementing_a_class_rejected() {
        let mut c = IrClass::new("p/C");
        c.interfaces.push("java/lang/Thread".into());
        assert_eq!(
            kind(link(&c, &VmSpec::j9())),
            (Phase::Linking, JvmErrorKind::IncompatibleClassChangeError)
        );
    }

    #[test]
    fn problem3_throws_clause_internal_class() {
        // M1437121261: main declares `throws sun/internal/PiscesKit$2`.
        let mut c = IrClass::with_hello_main("M1437121261", "x");
        c.methods[0]
            .exceptions
            .push("sun/internal/PiscesKit$2".into());
        assert_eq!(
            kind(link(&c, &VmSpec::hotspot9())),
            (Phase::Linking, JvmErrorKind::IllegalAccessError)
        );
        assert!(
            link(&c, &VmSpec::j9()).is_ok(),
            "J9 does not resolve throws clauses"
        );
        assert!(
            link(&c, &VmSpec::gij()).is_ok(),
            "GIJ does not resolve throws clauses"
        );
    }

    #[test]
    fn throws_clause_missing_class() {
        let mut c = IrClass::with_hello_main("p/T", "x");
        c.methods[0].exceptions.push("gone/Missing".into());
        assert_eq!(
            kind(link(&c, &VmSpec::hotspot8())),
            (Phase::Linking, JvmErrorKind::NoClassDefFoundError)
        );
        assert!(link(&c, &VmSpec::gij()).is_ok());
    }

    #[test]
    fn jre_generation_gates_environment_classes() {
        let mut c = IrClass::new("p/Legacy");
        c.super_class = Some("jre/ext/LegacySupport".into());
        assert!(link(&c, &VmSpec::hotspot7()).is_ok());
        assert_eq!(
            kind(link(&c, &VmSpec::hotspot8())),
            (Phase::Loading, JvmErrorKind::NoClassDefFoundError)
        );
    }
}
