//! A package outside the workspace: read as a caller, never linted.

fn main() {
    println!("{}", widget::from_bench());
}
