//! Cross-cutting policy tests: version gates, version-dependent checks,
//! multi-class classpaths, and coverage determinism.

use classfuzz_classfile::ClassAccess;
use classfuzz_coverage::TraceFile;
use classfuzz_jimple::builder::default_constructor;
use classfuzz_jimple::{lower::lower_class, IrClass, JType};
use classfuzz_vm::{Jvm, JvmErrorKind, Phase, VmSpec};

#[test]
fn version_gates_per_vm() {
    // (major version, [HS7, HS8, HS9, J9, GIJ] accepts?)
    let cases = [
        (51u16, [true, true, true, true, true]),
        (52, [false, true, true, true, false]),
        (53, [false, false, true, false, false]),
        (54, [false, false, false, false, false]),
    ];
    for (version, accepts) in cases {
        let mut class = IrClass::with_hello_main("v/Gate", "x");
        class.major_version = version;
        let bytes = lower_class(&class).to_bytes();
        for (spec, expected) in VmSpec::all_five().into_iter().zip(accepts) {
            let name = spec.name.clone();
            let out = Jvm::new(spec).run(&bytes).outcome;
            if expected {
                assert_eq!(out.phase(), Phase::Invoked, "{name} must accept v{version}");
            } else {
                assert_eq!(out.phase(), Phase::Loading, "{name} must reject v{version}");
                assert_eq!(
                    out.error().unwrap().kind,
                    JvmErrorKind::UnsupportedClassVersionError
                );
            }
        }
    }
}

#[test]
fn interface_abstract_flag_check_is_version_dependent() {
    // The "dubious construct at version 46" note from §3.1.1: an interface
    // without ACC_ABSTRACT loads at version 46 but not at 51 on HotSpot.
    for (version, rejected) in [(46u16, false), (48, false), (49, true), (51, true)] {
        let mut iface = IrClass::new("v/NoAbstract");
        iface.access = ClassAccess::PUBLIC | ClassAccess::INTERFACE; // no ABSTRACT
        iface.methods.clear();
        iface.major_version = version;
        let bytes = lower_class(&iface).to_bytes();
        let out = Jvm::new(VmSpec::hotspot8()).run(&bytes).outcome;
        if rejected {
            assert_eq!(out.phase(), Phase::Loading, "v{version} must be rejected");
        } else {
            assert_ne!(
                out.phase(),
                Phase::Loading,
                "v{version} must pass the format check"
            );
        }
    }
}

#[test]
fn classpath_extra_classes_are_resolvable() {
    // Main extends a helper supplied on the classpath; without the
    // classpath entry the superclass is missing.
    let mut helper = IrClass::new("cp/Helper");
    helper.methods.push(default_constructor("java/lang/Object"));
    let helper_bytes = lower_class(&helper).to_bytes();

    let mut main = IrClass::with_hello_main("cp/Main", "Completed!");
    main.super_class = Some("cp/Helper".into());
    main.methods.insert(0, default_constructor("cp/Helper"));
    let main_bytes = lower_class(&main).to_bytes();

    let jvm = Jvm::new(VmSpec::hotspot9());
    let run_with = |extras: &[Vec<u8>]| jvm.clone().with_classpath(extras).run(&main_bytes);
    let without = run_with(&[]).outcome;
    assert_eq!(without.phase(), Phase::Loading);
    assert_eq!(
        without.error().unwrap().kind,
        JvmErrorKind::NoClassDefFoundError
    );

    // [undecodable, helper]
    let extras = [vec![0xCA, 0xFE, 0xBA], helper_bytes];
    let with = run_with(&extras[1..]).outcome;
    assert_eq!(
        with.phase(),
        Phase::Invoked,
        "classpath superclass resolves: {with}"
    );
    // An extra that fails to decode is skipped: it changes no outcome.
    assert_eq!(run_with(&extras).outcome, with);
    assert_eq!(run_with(&extras[..1]).outcome, without);
}

#[test]
fn classpath_static_call_across_classes() {
    use classfuzz_classfile::MethodAccess;
    use classfuzz_jimple::builder::MethodBuilder;
    use classfuzz_jimple::{Expr, InvokeExpr, InvokeKind, Value};
    // util.Answer.get() returns 42; Main prints it.
    let mut util = IrClass::new("cp/Answer");
    util.methods.push(
        MethodBuilder::new("get", MethodAccess::PUBLIC | MethodAccess::STATIC)
            .returns(JType::Int)
            .ret_value(Value::int(42))
            .build(),
    );
    let util_bytes = lower_class(&util).to_bytes();

    let mut main = IrClass::new("cp/CallsOut");
    let m = MethodBuilder::new("main", MethodAccess::PUBLIC | MethodAccess::STATIC)
        .param(JType::array(JType::string()))
        .local("v", JType::Int)
        .local("out", JType::object("java/io/PrintStream"))
        .assign(
            "v",
            Expr::Invoke(InvokeExpr {
                kind: InvokeKind::Static,
                class: "cp/Answer".into(),
                name: "get".into(),
                params: vec![],
                ret: Some(JType::Int),
                receiver: None,
                args: vec![],
            }),
        )
        .assign(
            "out",
            Expr::StaticField(
                "java/lang/System".into(),
                "out".into(),
                JType::object("java/io/PrintStream"),
            ),
        )
        .stmt(classfuzz_jimple::Stmt::Invoke(InvokeExpr {
            kind: InvokeKind::Virtual,
            class: "java/io/PrintStream".into(),
            name: "println".into(),
            params: vec![JType::Int],
            ret: None,
            receiver: Some(Value::local("out")),
            args: vec![Value::local("v")],
        }))
        .ret()
        .build();
    main.methods.push(m);
    let main_bytes = lower_class(&main).to_bytes();

    let jvm = Jvm::new(VmSpec::hotspot9());
    let out = jvm
        .clone()
        .with_classpath(&[util_bytes])
        .run(&main_bytes)
        .outcome;
    match out {
        classfuzz_vm::Outcome::Invoked { stdout } => assert_eq!(stdout, vec!["42"]),
        other => panic!("expected invocation, got {other}"),
    }
    // Without the classpath entry, the call site fails at runtime.
    let missing = jvm.run(&main_bytes).outcome;
    assert_eq!(missing.phase(), Phase::Runtime);
}

#[test]
fn traces_are_deterministic_and_profile_sensitive() {
    let bytes = lower_class(&IrClass::with_hello_main("v/Trace", "x")).to_bytes();
    let reference = Jvm::new(VmSpec::hotspot9());
    let (mut a, mut b) = (TraceFile::new(), TraceFile::new());
    let traced = reference.run_traced_into(&bytes, &mut a);
    reference.run_traced_into(&bytes, &mut b);
    assert_eq!(a, b, "identical runs produce identical traces");

    // Tracing does not change the observable outcome.
    assert_eq!(traced, reference.run(&bytes));
}

#[test]
fn outcome_independent_of_coverage_collection_for_rejections() {
    // A class rejected during verification must be rejected identically
    // with and without coverage collection.
    let mut class = IrClass::with_hello_main("v/Rej", "x");
    class.super_class = Some("java/lang/String".into()); // final superclass
    let bytes = lower_class(&class).to_bytes();
    for spec in VmSpec::all_five() {
        let jvm = Jvm::new(spec);
        let traced = jvm.run_traced_into(&bytes, &mut TraceFile::new());
        assert_eq!(jvm.run(&bytes), traced);
    }
}
