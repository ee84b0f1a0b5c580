fn main() {
    std::process::exit(rif_perf::runner::main(std::env::args().skip(1).collect()));
}
