fn main() -> std::process::ExitCode {
    fraz_e2e::cli::main()
}
