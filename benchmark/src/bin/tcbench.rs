//! The measuring binary: the product's own allocator, no counters.

fn main() {
    std::process::exit(timecrypt_benchmark::cli::main(None));
}
