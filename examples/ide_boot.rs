//! Boot the simulated kernel twice — once with the classic C IDE driver,
//! once with the CDevil driver — and show they behave identically, then
//! inject one typo into each and watch the difference.
//!
//! ```text
//! cargo run --example ide_boot
//! ```

use devil::drivers::ide;
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::fs;
use devil::kernel::scenario::run_compiled;
use devil::kernel::scenarios::IdeBootScenario;
use devil::kernel::Scenario;

fn boot(label: &str, file: &str, source: &str, includes: &[(String, String)]) {
    let incs: Vec<(&str, &str)> =
        includes.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    match devil::minic::compile_with_includes(file, source, &incs) {
        Err(e) => println!("{label}: COMPILE ERROR: {e}"),
        Ok(program) => {
            let mut scenario = IdeBootScenario::new(fs::standard_files());
            let mut io = scenario.build();
            let report = run_compiled(&scenario, &program.to_bytecode(), &mut io, DEFAULT_FUEL);
            println!("{label}: {} — {}", report.outcome, report.detail);
            for line in &report.console {
                println!("{label}:   console: {line}");
            }
        }
    }
}

fn main() {
    println!("== clean drivers ==");
    boot("C     ", ide::IDE_C_FILE, ide::IDE_C_DRIVER, &[]);
    boot(
        "CDevil",
        ide::IDE_CDEVIL_FILE,
        ide::IDE_CDEVIL_DRIVER,
        &ide::cdevil_includes(),
    );

    println!("\n== one-character typo: drive-select constant ==");
    // C: 0xe0 -> 0xf0 silently selects the (absent) slave drive.
    let c_typo = ide::IDE_C_DRIVER.replace("outb(0xe0 | sel, HD_CURRENT);", "outb(0xf0 | sel, HD_CURRENT);");
    boot("C     ", ide::IDE_C_FILE, &c_typo, &[]);
    // CDevil: the equivalent inattention error — the wrong constant.
    let d_typo = ide::IDE_CDEVIL_DRIVER.replace("set_Drive(MASTER);\n    set_head", "set_Drive(SLAVE);\n    set_head");
    boot(
        "CDevil",
        ide::IDE_CDEVIL_FILE,
        &d_typo,
        &ide::cdevil_includes(),
    );

    println!("\n== type confusion: a command constant where a drive belongs ==");
    let d_confused = ide::IDE_CDEVIL_DRIVER.replace("set_Drive(MASTER);\n    set_head", "set_Drive(IDENTIFY);\n    set_head");
    boot(
        "CDevil",
        ide::IDE_CDEVIL_FILE,
        &d_confused,
        &ide::cdevil_includes(),
    );
    println!("(the struct encoding of Devil types catches this at compile time)");
}
