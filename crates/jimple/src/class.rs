//! IR-level class, field, and method models (the `SootClass` analogue).

use classfuzz_classfile::{ClassAccess, FieldAccess, MethodAccess};

use crate::cow::CowList;
use crate::stmt::{Const, InvokeExpr, InvokeKind, Stmt, Value};
use crate::types::{method_descriptor, JType};

/// A local-variable declaration within a method body.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDecl {
    /// Variable name (unique within the body).
    pub name: String,
    /// Declared type — drives *load* opcode selection when lowering.
    pub ty: JType,
}

/// A protected region: statements between `start` and `end` labels are
/// covered by the handler at `handler`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// Label opening the protected range (inclusive).
    pub start: crate::stmt::Label,
    /// Label closing the protected range (exclusive).
    pub end: crate::stmt::Label,
    /// Label of the handler's entry point.
    pub handler: crate::stmt::Label,
    /// Caught exception class; `None` catches everything (`finally`).
    pub exception: Option<String>,
}

/// A method body: declared locals plus a statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    /// Declared locals (parameters are *not* listed here; they are locals
    /// implicitly, bound by `Expr::Param` identity assignments).
    pub locals: Vec<LocalDecl>,
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Try/catch regions, lowered to the `Code` exception table.
    pub catches: Vec<CatchClause>,
}

impl Body {
    /// Creates an empty body.
    pub fn new() -> Self {
        Body::default()
    }

    /// Declares a local and returns its name for convenience.
    pub fn declare(&mut self, name: impl Into<String>, ty: JType) -> String {
        let name = name.into();
        self.locals.push(LocalDecl {
            name: name.clone(),
            ty,
        });
        name
    }

    /// Looks up a declared local's type.
    pub fn local_type(&self, name: &str) -> Option<&JType> {
        self.locals.iter().find(|l| l.name == name).map(|l| &l.ty)
    }
}

/// An IR field.
#[derive(Debug, Clone, PartialEq)]
pub struct IrField {
    /// Access flags.
    pub access: FieldAccess,
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: JType,
    /// Optional `ConstantValue` (meaningful for `static final`).
    pub constant_value: Option<Const>,
}

/// An IR method.
#[derive(Debug, Clone, PartialEq)]
pub struct IrMethod {
    /// Access flags.
    pub access: MethodAccess,
    /// Method name (`<init>`, `<clinit>`, or ordinary).
    pub name: String,
    /// Parameter types.
    pub params: Vec<JType>,
    /// Return type; `None` = void.
    pub ret: Option<JType>,
    /// Declared (`throws`) exception class names.
    pub exceptions: Vec<String>,
    /// Body; `None` produces a method without a `Code` attribute.
    pub body: Option<Body>,
}

impl IrMethod {
    /// Creates a bodiless method (abstract/native shape).
    pub fn abstract_method(
        access: MethodAccess,
        name: impl Into<String>,
        params: Vec<JType>,
        ret: Option<JType>,
    ) -> Self {
        IrMethod {
            access,
            name: name.into(),
            params,
            ret,
            exceptions: Vec::new(),
            body: None,
        }
    }

    /// The method descriptor text.
    pub fn descriptor(&self) -> String {
        method_descriptor(&self.params, self.ret.as_ref())
    }

    /// Returns `true` if this is the class-initialization method shape
    /// (`<clinit>` by name, regardless of flags — per the paper's Problem 1,
    /// which JVM treats what as `<clinit>` is policy).
    pub fn is_named_clinit(&self) -> bool {
        self.name == "<clinit>"
    }

    /// Returns `true` if this is an instance-initialization method by name.
    pub fn is_named_init(&self) -> bool {
        self.name == "<init>"
    }
}

/// An IR class: the unit mutators operate on.
#[derive(Debug, Clone, PartialEq)]
pub struct IrClass {
    /// Binary name, e.g. `"p/q/M1436188543"`.
    pub name: String,
    /// Class access flags.
    pub access: ClassAccess,
    /// Superclass binary name; `None` lowers to a zero `super_class`
    /// (legal only for `java/lang/Object`).
    pub super_class: Option<String>,
    /// Implemented interfaces, by binary name.
    pub interfaces: Vec<String>,
    /// Fields, individually shared copy-on-write (see [`CowList`]).
    pub fields: CowList<IrField>,
    /// Methods, individually shared copy-on-write (see [`CowList`]).
    pub methods: CowList<IrMethod>,
    /// Classfile major version (the paper pins mutants to 51).
    pub major_version: u16,
}

impl IrClass {
    /// Creates an empty public class extending `java/lang/Object`.
    pub fn new(name: impl Into<String>) -> Self {
        IrClass {
            name: name.into(),
            access: ClassAccess::PUBLIC | ClassAccess::SUPER,
            super_class: Some("java/lang/Object".to_string()),
            interfaces: Vec::new(),
            fields: CowList::new(),
            methods: CowList::new(),
            major_version: 51,
        }
    }

    /// A clone that shares nothing with `self`: every field and method is
    /// copied. `IrClass::clone` itself is shallow (members stay shared
    /// until written); this is the old deep copy, kept as the cold half of
    /// the clone-cost benchmark pair.
    pub fn deep_clone(&self) -> IrClass {
        IrClass {
            name: self.name.clone(),
            access: self.access,
            super_class: self.super_class.clone(),
            interfaces: self.interfaces.clone(),
            fields: self.fields.deep_clone(),
            methods: self.methods.deep_clone(),
            major_version: self.major_version,
        }
    }

    /// Creates a class with a `main` method that prints `message` — the
    /// paper's instrumentation marker showing a class loaded and ran
    /// normally (§2.2.1).
    pub fn with_hello_main(name: impl Into<String>, message: &str) -> Self {
        let mut class = IrClass::new(name);
        class.methods.push(Self::print_main(message));
        class
    }

    /// Builds the standard `public static void main(String[])` that prints
    /// `message` via `System.out.println`.
    pub fn print_main(message: &str) -> IrMethod {
        let mut body = Body::new();
        body.declare("r1", JType::object("java/io/PrintStream"));
        body.stmts.push(Stmt::Assign {
            target: crate::stmt::Target::Local("r1".into()),
            value: crate::stmt::Expr::StaticField(
                "java/lang/System".into(),
                "out".into(),
                JType::object("java/io/PrintStream"),
            ),
        });
        body.stmts.push(Stmt::Invoke(InvokeExpr {
            kind: InvokeKind::Virtual,
            class: "java/io/PrintStream".into(),
            name: "println".into(),
            params: vec![JType::string()],
            ret: None,
            receiver: Some(Value::local("r1")),
            args: vec![Value::str(message)],
        }));
        body.stmts.push(Stmt::Return(None));
        IrMethod {
            access: MethodAccess::PUBLIC | MethodAccess::STATIC,
            name: "main".into(),
            params: vec![JType::array(JType::string())],
            ret: None,
            exceptions: Vec::new(),
            body: Some(body),
        }
    }

    /// Ensures the class has a `main(String[])` method, appending the
    /// printing one if absent. Returns `true` if a method was added.
    ///
    /// The paper supplements every mutant this way so "normally invoked" is
    /// observable (§2.2.1).
    pub fn ensure_main(&mut self, message: &str) -> bool {
        // Matched in place: this runs for every method of every mutant.
        let has_main = self.methods.iter().any(|m| {
            let [JType::Array(component)] = m.params.as_slice() else {
                return false;
            };
            m.name == "main"
                && matches!(&**component, JType::Object(name) if name == "java/lang/String")
        });
        if has_main {
            return false;
        }
        self.methods.push(Self::print_main(message));
        true
    }

    /// Finds a method by name (first match).
    pub fn find_method(&self, name: &str) -> Option<&IrMethod> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Finds a field by name (first match).
    pub fn find_field(&self, name: &str) -> Option<&IrField> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Returns `true` when the `ACC_INTERFACE` flag is set.
    pub fn is_interface(&self) -> bool {
        self.access.contains(ClassAccess::INTERFACE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_main_is_idempotent() {
        let mut c = IrClass::new("A");
        assert!(c.ensure_main("Completed!"));
        assert!(!c.ensure_main("Completed!"));
        assert_eq!(c.methods.len(), 1);
    }

    #[test]
    fn ensure_main_wants_exactly_a_string_array() {
        // Neither `main(Object[])` nor `main(String)` is the entry point,
        // so the printing `main(String[])` is still supplemented.
        for params in [
            vec![JType::array(JType::jobject())],
            vec![JType::string()],
            vec![JType::array(JType::array(JType::string()))],
        ] {
            let mut c = IrClass::new("A");
            c.methods.push(IrMethod::abstract_method(
                MethodAccess::PUBLIC | MethodAccess::STATIC,
                "main",
                params,
                None,
            ));
            assert!(c.ensure_main("Completed!"));
            assert_eq!(c.methods.len(), 2);
            assert_eq!(c.methods[1].descriptor(), "([Ljava/lang/String;)V");
        }
    }

    #[test]
    fn hello_main_shape() {
        let c = IrClass::with_hello_main("A", "hi");
        let m = c.find_method("main").unwrap();
        assert_eq!(m.descriptor(), "([Ljava/lang/String;)V");
        assert!(m.access.contains(MethodAccess::STATIC));
        assert_eq!(m.body.as_ref().unwrap().stmts.len(), 3);
    }

    #[test]
    fn special_names() {
        let m = IrMethod::abstract_method(MethodAccess::PUBLIC, "<clinit>", vec![], None);
        assert!(m.is_named_clinit());
        assert!(!m.is_named_init());
    }

    #[test]
    fn body_local_lookup() {
        let mut b = Body::new();
        b.declare("x", JType::Int);
        assert_eq!(b.local_type("x"), Some(&JType::Int));
        assert_eq!(b.local_type("y"), None);
    }
}
