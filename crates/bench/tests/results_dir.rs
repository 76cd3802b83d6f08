//! `results_dir()` resolves against the workspace root, not the working
//! directory. A test binary of its own: it is the only code in its process
//! that touches `ULBA_RESULTS`.

use std::path::Path;
use ulba_bench::output::write_csv;

#[test]
fn csv_from_the_crate_directory_lands_in_the_workspace_results() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(std::env::current_dir().unwrap(), crate_dir, "cargo runs tests from the crate");

    std::env::remove_var("ULBA_RESULTS");
    let name = "results-dir-anchor-probe";
    let written = write_csv(name, &["a"], &[vec!["1".into()]]).canonicalize().unwrap();
    std::fs::remove_file(&written).unwrap();
    let workspace_results = crate_dir.join("../../results").canonicalize().unwrap();
    assert_eq!(written, workspace_results.join(format!("{name}.csv")));
    assert!(!crate_dir.join("results").exists(), "nothing may be written under the crate");

    // The override still wins.
    let tmp = std::env::temp_dir().join("ulba-results-dir-override");
    std::env::set_var("ULBA_RESULTS", &tmp);
    let path = write_csv(name, &["a"], &[vec!["1".into()]]);
    assert_eq!(path, tmp.join(format!("{name}.csv")));
    assert!(path.exists());
    std::env::remove_var("ULBA_RESULTS");
}
