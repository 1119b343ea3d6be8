//! `figures` refuses an id it does not know: a mistyped id in a doc or a
//! script exits 2 instead of printing nothing and succeeding.

fn exit_code(id: &str) -> Option<i32> {
    let mut figures = std::process::Command::new(env!("CARGO_BIN_EXE_figures"));
    figures.arg(id).output().expect("run figures").status.code()
}

#[test]
fn unknown_ids_exit_2_and_known_ids_exit_0() {
    assert_eq!(exit_code("fig2"), Some(2), "unpadded id");
    assert_eq!(exit_code("fig02"), Some(0));
}
