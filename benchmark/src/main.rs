//! Command-line entry point; see `abcast_benchmark::cli`.

fn main() -> std::process::ExitCode {
    abcast_benchmark::cli::main()
}
