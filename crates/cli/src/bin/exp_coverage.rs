//! Experiment: §7.2 "Test coverage".
//!
//! The paper measures the proportion of model clauses exercised when checking
//! a full test run and reports 98% statement coverage. The reproduction
//! instruments the model with named specification points; this binary runs
//! the suite on the reference configuration, checks it under both the Linux
//! flavour and the POSIX envelope (platform-specific clauses are only
//! exercised by the matching flavour, as the paper notes), and reports the
//! fraction of specification points hit. Coverage is collected per thread,
//! so the checking runs here, on the thread that collects it.

use sibylfs_check::{check_trace, CheckOptions};
use sibylfs_cli::suite_from_args;
use sibylfs_core::coverage;
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_suite, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_report::render_coverage_markdown;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = suite_from_args(&args);
    println!("# §7.2 Test coverage of the model\n");
    println!("Suite size: {} scripts\n", suite.len());

    coverage::scoped_begin();
    for (config, flavor) in [
        ("linux/tmpfs", Flavor::Linux),
        ("linux/tmpfs", Flavor::Posix),
        ("mac/hfsplus", Flavor::Mac),
        ("freebsd/ufs", Flavor::FreeBsd),
        ("linux/sshfs-allow-other", Flavor::Linux),
    ] {
        let profile = configs::by_name(config).expect("registered configuration");
        let traces = execute_suite(&profile, &suite, ExecOptions::default());
        let cfg = SpecConfig::standard(flavor);
        let accepted = traces
            .iter()
            .filter(|t| check_trace(&cfg, t, CheckOptions::default()).accepted)
            .count();
        println!(
            "* checked {} against `{}`: {}/{} accepted",
            config,
            flavor.name(),
            accepted,
            traces.len()
        );
    }
    let hits = coverage::scoped_end();
    let summary = coverage::CoverageSummary::from_hits(&hits);
    println!();
    print!("{}", render_coverage_markdown(&summary));
    println!("\nPaper reference: 98% statement coverage of the model.");
}
