//! Pretty-printing of plans as indented operator trees (`EXPLAIN`-style).

use crate::plan::{Cond, Plan};
use qld_logic::Vocabulary;
use std::fmt;

/// Wrapper rendering a [`Plan`] with names from a vocabulary.
pub struct PlanDisplay<'a> {
    voc: &'a Vocabulary,
    plan: &'a Plan,
}

/// Renders `plan` as an indented tree.
pub fn display_plan<'a>(voc: &'a Vocabulary, plan: &'a Plan) -> PlanDisplay<'a> {
    PlanDisplay { voc, plan }
}

fn write_cond(f: &mut fmt::Formatter<'_>, voc: &Vocabulary, c: &Cond) -> fmt::Result {
    match c {
        Cond::EqCol(i, j) => write!(f, "#{i} = #{j}"),
        Cond::NeCol(i, j) => write!(f, "#{i} != #{j}"),
        Cond::EqConst(i, k) => write!(f, "#{i} = {}", voc.const_name(*k)),
        Cond::NeConst(i, k) => write!(f, "#{i} != {}", voc.const_name(*k)),
    }
}

fn write_plan(
    f: &mut fmt::Formatter<'_>,
    voc: &Vocabulary,
    plan: &Plan,
    indent: usize,
) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match plan {
        Plan::Values(rel) => {
            writeln!(f, "{pad}Values/{} [{} tuples]", rel.arity(), rel.len())
        }
        Plan::Dom => writeln!(f, "{pad}Dom"),
        Plan::ConstVal(c) => writeln!(f, "{pad}ConstVal({})", voc.const_name(*c)),
        Plan::Scan(p) => writeln!(f, "{pad}Scan({})", voc.pred_name(*p)),
        Plan::Select { input, conds } => {
            write!(f, "{pad}Select[")?;
            for (i, c) in conds.iter().enumerate() {
                if i > 0 {
                    write!(f, " & ")?;
                }
                write_cond(f, voc, c)?;
            }
            writeln!(f, "]")?;
            write_plan(f, voc, input, indent + 1)
        }
        Plan::Project { input, cols } => {
            let cols: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
            writeln!(f, "{pad}Project[{}]", cols.join(", "))?;
            write_plan(f, voc, input, indent + 1)
        }
        Plan::Product(l, r) => {
            writeln!(f, "{pad}Product")?;
            write_plan(f, voc, l, indent + 1)?;
            write_plan(f, voc, r, indent + 1)
        }
        Plan::Join { left, right, keys } => {
            let keys: Vec<String> = keys.iter().map(|(l, r)| format!("L#{l} = R#{r}")).collect();
            writeln!(f, "{pad}Join[{}]", keys.join(" & "))?;
            write_plan(f, voc, left, indent + 1)?;
            write_plan(f, voc, right, indent + 1)
        }
        Plan::Union(l, r) => {
            writeln!(f, "{pad}Union")?;
            write_plan(f, voc, l, indent + 1)?;
            write_plan(f, voc, r, indent + 1)
        }
        Plan::Difference(l, r) => {
            writeln!(f, "{pad}Difference")?;
            write_plan(f, voc, l, indent + 1)?;
            write_plan(f, voc, r, indent + 1)
        }
    }
}

impl fmt::Display for PlanDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_plan(f, self.voc, self.plan, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_query;
    use crate::opt::optimize;
    use qld_logic::parser::parse_query;

    #[test]
    fn renders_operator_tree() {
        let mut voc = Vocabulary::new();
        voc.add_const("a").unwrap();
        voc.add_pred("R", 2).unwrap();
        voc.add_pred("M", 1).unwrap();
        let q = parse_query(&voc, "(x) . exists y. R(x, y) & M(y)").unwrap();
        let plan = optimize(&voc, compile_query(&voc, &q).unwrap());
        let rendered = display_plan(&voc, &plan).to_string();
        assert!(rendered.contains("Scan(R)"), "{rendered}");
        assert!(rendered.contains("Scan(M)"), "{rendered}");
        assert!(rendered.contains("Join["), "{rendered}");
        // Indentation shows tree depth.
        assert!(
            rendered.lines().any(|l| l.starts_with("    ")),
            "{rendered}"
        );
    }

    #[test]
    fn renders_conditions_with_names() {
        let mut voc = Vocabulary::new();
        let a = voc.add_const("alpha").unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let plan = Plan::select(Plan::Scan(r), vec![Cond::EqConst(0, a), Cond::NeCol(0, 1)]);
        let rendered = display_plan(&voc, &plan).to_string();
        assert!(rendered.contains("#0 = alpha & #0 != #1"), "{rendered}");
    }
}
