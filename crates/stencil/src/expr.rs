//! The stencil expression DSL.
//!
//! Mirrors the structure of BrickLib's Python DSL (paper Figure 1): declare
//! input grids and symbolic coefficients, express the per-point computation
//! as an arithmetic expression over shifted grid references, and assign it
//! to one or more output grids. The definition is a plain data structure
//! that analysis passes and executors consume.

use gmg_mesh::Point3;
use std::cell::RefCell;
use std::ops::{Add, Mul, Neg, Sub};
use std::rc::Rc;

/// Identifier of an input grid within a [`StencilDef`].
pub type GridId = usize;
/// Identifier of a symbolic coefficient within a [`StencilDef`].
pub type CoeffId = usize;

/// A per-point arithmetic expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Read input grid `grid` at the evaluation point shifted by `offset`.
    Grid {
        grid: GridId,
        offset: Point3,
    },
    /// A symbolic coefficient, bound at execution time.
    Coeff(CoeffId),
    /// A literal constant.
    Const(f64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    /// `if cond >= 0 { a } else { b }` — the DSL's conditional (the paper
    /// notes BrickLib's DSL supports conditionals, e.g. for upwinding).
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate with `grid(id, offset)` supplying shifted grid reads and
    /// `coeff(id)` supplying coefficient values.
    pub fn eval(
        &self,
        grid: &impl Fn(GridId, Point3) -> f64,
        coeff: &impl Fn(CoeffId) -> f64,
    ) -> f64 {
        match self {
            Expr::Grid { grid: g, offset } => grid(*g, *offset),
            Expr::Coeff(c) => coeff(*c),
            Expr::Const(v) => *v,
            Expr::Add(a, b) => a.eval(grid, coeff) + b.eval(grid, coeff),
            Expr::Sub(a, b) => a.eval(grid, coeff) - b.eval(grid, coeff),
            Expr::Mul(a, b) => a.eval(grid, coeff) * b.eval(grid, coeff),
            Expr::Neg(a) => -a.eval(grid, coeff),
            Expr::Select(c, a, b) => {
                if c.eval(grid, coeff) >= 0.0 {
                    a.eval(grid, coeff)
                } else {
                    b.eval(grid, coeff)
                }
            }
        }
    }

    /// Visit every node of the expression tree.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Neg(a) => a.visit(f),
            Expr::Select(c, a, b) => {
                c.visit(f);
                a.visit(f);
                b.visit(f);
            }
            _ => {}
        }
    }
}

/// One output assignment: `outputs[output] <- expr` at every point.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Index into [`StencilDef::outputs`].
    pub output: usize,
    /// The per-point expression.
    pub expr: Expr,
}

/// A complete stencil definition: named inputs, coefficients, and output
/// assignments.
#[derive(Clone, Debug)]
pub struct StencilDef {
    pub name: String,
    pub inputs: Vec<String>,
    pub coeffs: Vec<String>,
    pub outputs: Vec<String>,
    pub assignments: Vec<Assignment>,
}

impl StencilDef {
    /// Build a stencil through the closure-based [`Builder`] API (see the
    /// crate-level example).
    pub fn build(name: &str, f: impl FnOnce(&Builder)) -> StencilDef {
        let b = Builder {
            inner: Rc::new(RefCell::new(BuilderInner {
                inputs: Vec::new(),
                coeffs: Vec::new(),
                outputs: Vec::new(),
                assignments: Vec::new(),
            })),
        };
        f(&b);
        let inner = match Rc::try_unwrap(b.inner) {
            Ok(cell) => cell.into_inner(),
            Err(_) => panic!("builder handles must not escape the closure"),
        };
        assert!(
            !inner.assignments.is_empty(),
            "stencil {name:?} has no assignments"
        );
        StencilDef {
            name: name.to_string(),
            inputs: inner.inputs,
            coeffs: inner.coeffs,
            outputs: inner.outputs,
            assignments: inner.assignments,
        }
    }

    /// Static analysis of this stencil (cached computation is cheap enough
    /// to recompute on demand).
    pub fn analysis(&self) -> crate::analysis::StencilAnalysis {
        crate::analysis::StencilAnalysis::of(self)
    }
}

struct BuilderInner {
    inputs: Vec<String>,
    coeffs: Vec<String>,
    outputs: Vec<String>,
    assignments: Vec<Assignment>,
}

/// Collects declarations and assignments during [`StencilDef::build`].
pub struct Builder {
    inner: Rc<RefCell<BuilderInner>>,
}

impl Builder {
    /// Declare an input grid.
    pub fn input(&self, name: &str) -> GridHandle {
        let mut i = self.inner.borrow_mut();
        assert!(
            !i.inputs.iter().any(|n| n == name),
            "duplicate input {name:?}"
        );
        i.inputs.push(name.to_string());
        GridHandle {
            id: i.inputs.len() - 1,
        }
    }

    /// Declare a symbolic coefficient (bound to a value at execution time).
    pub fn coeff(&self, name: &str) -> ExprHandle {
        let mut i = self.inner.borrow_mut();
        assert!(
            !i.coeffs.iter().any(|n| n == name),
            "duplicate coefficient {name:?}"
        );
        i.coeffs.push(name.to_string());
        ExprHandle(Expr::Coeff(i.coeffs.len() - 1))
    }

    /// A literal constant expression.
    pub fn constant(&self, v: f64) -> ExprHandle {
        ExprHandle(Expr::Const(v))
    }

    /// Assign `expr` to output grid `name` (declared on first use).
    pub fn assign(&self, name: &str, expr: ExprHandle) {
        let mut i = self.inner.borrow_mut();
        let output = match i.outputs.iter().position(|n| n == name) {
            Some(p) => p,
            None => {
                i.outputs.push(name.to_string());
                i.outputs.len() - 1
            }
        };
        i.assignments.push(Assignment {
            output,
            expr: expr.0,
        });
    }
}

/// Handle to a declared input grid; `at(dx, dy, dz)` produces a shifted
/// reference expression.
#[derive(Clone, Copy)]
pub struct GridHandle {
    id: GridId,
}

impl GridHandle {
    /// Reference this grid at offset `(dx, dy, dz)` from the evaluation
    /// point.
    pub fn at(&self, dx: i64, dy: i64, dz: i64) -> ExprHandle {
        ExprHandle(Expr::Grid {
            grid: self.id,
            offset: Point3::new(dx, dy, dz),
        })
    }
}

/// An owned expression with operator overloading.
#[derive(Clone, Debug)]
pub struct ExprHandle(pub Expr);

impl ExprHandle {
    /// Conditional: `if self >= 0 { then } else { otherwise }`.
    pub fn select(self, then: ExprHandle, otherwise: ExprHandle) -> ExprHandle {
        ExprHandle(Expr::Select(
            Box::new(self.0),
            Box::new(then.0),
            Box::new(otherwise.0),
        ))
    }
}

impl Add for ExprHandle {
    type Output = ExprHandle;
    fn add(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Expr::Add(Box::new(self.0), Box::new(rhs.0)))
    }
}

impl Sub for ExprHandle {
    type Output = ExprHandle;
    fn sub(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Expr::Sub(Box::new(self.0), Box::new(rhs.0)))
    }
}

impl Mul for ExprHandle {
    type Output = ExprHandle;
    fn mul(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Expr::Mul(Box::new(self.0), Box::new(rhs.0)))
    }
}

impl Neg for ExprHandle {
    type Output = ExprHandle;
    fn neg(self) -> ExprHandle {
        ExprHandle(Expr::Neg(Box::new(self.0)))
    }
}

impl Mul<ExprHandle> for f64 {
    type Output = ExprHandle;
    fn mul(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Expr::Mul(Box::new(Expr::Const(self)), Box::new(rhs.0)))
    }
}

impl Add<ExprHandle> for f64 {
    type Output = ExprHandle;
    fn add(self, rhs: ExprHandle) -> ExprHandle {
        ExprHandle(Expr::Add(Box::new(Expr::Const(self)), Box::new(rhs.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seven_point() -> StencilDef {
        StencilDef::build("applyOp", |b| {
            let x = b.input("x");
            let alpha = b.coeff("alpha");
            let beta = b.coeff("beta");
            let calc = alpha * x.at(0, 0, 0)
                + beta
                    * ((x.at(1, 0, 0) + x.at(-1, 0, 0))
                        + (x.at(0, 1, 0) + x.at(0, -1, 0))
                        + (x.at(0, 0, 1) + x.at(0, 0, -1)));
            b.assign("Ax", calc);
        })
    }

    #[test]
    fn builder_records_names() {
        let s = seven_point();
        assert_eq!(s.name, "applyOp");
        assert_eq!(s.inputs, vec!["x"]);
        assert_eq!(s.coeffs, vec!["alpha", "beta"]);
        assert_eq!(s.outputs, vec!["Ax"]);
        assert_eq!(s.assignments.len(), 1);
    }

    #[test]
    fn eval_seven_point() {
        let s = seven_point();
        // Grid value = 1 everywhere: α·1 + β·6.
        let v = s.assignments[0]
            .expr
            .eval(&|_, _| 1.0, &|c| if c == 0 { -6.0 } else { 1.0 });
        assert_eq!(v, 0.0);
        // Grid value = x coordinate: Laplacian of linear field = α·x0 + β·6·x0.
        let v2 = s.assignments[0]
            .expr
            .eval(&|_, off| 10.0 + off.x as f64, &|c| {
                if c == 0 {
                    -6.0
                } else {
                    1.0
                }
            });
        assert!((v2 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn multi_output_assignments() {
        let s = StencilDef::build("smooth+residual", |b| {
            let x = b.input("x");
            let ax = b.input("Ax");
            let rhs = b.input("b");
            let gamma = b.coeff("gamma");
            b.assign("res", rhs.at(0, 0, 0) - ax.at(0, 0, 0));
            b.assign(
                "x",
                x.at(0, 0, 0) + gamma * (ax.at(0, 0, 0) - rhs.at(0, 0, 0)),
            );
        });
        assert_eq!(s.outputs, vec!["res", "x"]);
        assert_eq!(s.assignments.len(), 2);
    }

    #[test]
    fn const_and_neg() {
        let s = StencilDef::build("t", |b| {
            let x = b.input("x");
            b.assign("y", -(2.0 * x.at(0, 0, 0)) + b.constant(5.0));
        });
        let v = s.assignments[0].expr.eval(&|_, _| 3.0, &|_| 0.0);
        assert_eq!(v, -1.0);
    }

    #[test]
    #[should_panic]
    fn duplicate_input_panics() {
        StencilDef::build("t", |b| {
            b.input("x");
            b.input("x");
        });
    }

    #[test]
    #[should_panic]
    fn empty_stencil_panics() {
        StencilDef::build("t", |_| {});
    }

    #[test]
    fn select_conditional() {
        // Upwind pick: take the neighbor on the side the "wind" w blows from.
        let s = StencilDef::build("upwind", |b| {
            let x = b.input("x");
            let w = b.input("w");
            b.assign("y", w.at(0, 0, 0).select(x.at(-1, 0, 0), x.at(1, 0, 0)));
        });
        let eval = |wv: f64| {
            s.assignments[0].expr.eval(
                &|g, off| if g == 0 { off.x as f64 * 10.0 } else { wv },
                &|_| 0.0,
            )
        };
        assert_eq!(eval(1.0), -10.0);
        assert_eq!(eval(-1.0), 10.0);
        assert_eq!(eval(0.0), -10.0); // >= 0 takes the then-branch
    }

    #[test]
    fn visit_counts_nodes() {
        let s = seven_point();
        let mut n = 0;
        s.assignments[0].expr.visit(&mut |_| n += 1);
        // 7 grid refs + 2 coeffs + 6 adds + 2 muls = 17 nodes.
        assert_eq!(n, 17);
    }
}
