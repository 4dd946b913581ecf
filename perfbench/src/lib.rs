pub mod harness;
