//! The `vist` command-line tool: create, populate, query, and maintain
//! ViST index files. Run `vist help` for usage.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match vist::cli::run(&args) {
        // print_stdout exits 0 quietly when the reader hung up
        // (`vist query ... | head` must not panic on BrokenPipe).
        Ok(out) => vist::cli::print_stdout(&out),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
