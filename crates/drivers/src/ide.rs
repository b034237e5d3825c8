//! The IDE disk driver, written twice (§4.2):
//!
//! * [`IDE_C_DRIVER`] — classic Linux `hd.c` style: `#define`d port
//!   numbers, raw `inb`/`outb`, hand-rolled bit manipulation. The
//!   hardware-operating code sits between the mutation markers and is the
//!   subject of **Table 3**.
//! * [`IDE_CDEVIL_DRIVER`] — the re-engineered driver: a thin glue layer
//!   (`CDevil`) over the stubs generated from `specs/ide_piix4.dil` in
//!   debug mode. The glue is the subject of **Table 4**.
//!
//! Both export the boot-harness contract: `int ide_probe(void)`,
//! `int ide_read(int lba, int count)`, `int ide_write(int lba)` and the
//! sector buffer `unsigned short io_buf[256]`.

use devil_core::codegen::{generate, CodegenMode};

/// Name under which the generated header is included.
pub const IDE_HEADER_NAME: &str = "ide_piix4.dil.h";

/// File name used for the C driver in diagnostics and coverage.
pub const IDE_C_FILE: &str = "ide_c.c";
/// File name used for the CDevil driver in diagnostics and coverage.
pub const IDE_CDEVIL_FILE: &str = "ide_cdevil.c";

/// The original-style C driver (Table 3 subject).
pub const IDE_C_DRIVER: &str = r#"/* hd.c-style PIO driver for the simulated PIIX4 IDE primary channel. */
typedef unsigned char u8;
typedef unsigned short u16;

unsigned short io_buf[256];

#define HD_DATA      0x1f0
#define HD_ERROR     0x1f1
#define HD_NSECTOR   0x1f2
#define HD_SECTOR    0x1f3
#define HD_LCYL      0x1f4
#define HD_HCYL      0x1f5
#define HD_CURRENT   0x1f6
#define HD_STATUS    0x1f7
#define HD_COMMAND   0x1f7
#define HD_CMD       0x1f8

#define ERR_STAT     0x01
#define INDEX_STAT   0x02
#define ECC_STAT     0x04
#define DRQ_STAT     0x08
#define SEEK_STAT    0x10
#define WRERR_STAT   0x20
#define READY_STAT   0x40
#define BUSY_STAT    0x80

#define WIN_RESTORE  0x10
#define WIN_READ     0x20
#define WIN_WRITE    0x30
#define WIN_IDENTIFY 0xec

/* The classic contorted one-liner: report and yield a value, always
 * executed as part of the surrounding line. */
#define HD_FAIL(msg, v) (printk(msg), (v))

/* DEVIL_MUT_BEGIN */
static int controller_busy(void)
{
    int retries = 20000;
    u8 status;

    do { status = inb(HD_STATUS); } while ((status & BUSY_STAT) && --retries > 0);
    return (status & BUSY_STAT) != 0;
}

static int drive_ready(void)
{
    u8 status = inb(HD_STATUS);
    return ((status & (BUSY_STAT | READY_STAT | ERR_STAT)) == READY_STAT) || (status & SEEK_STAT) != 0;
}

static int wait_DRQ(void)
{
    int retries = 20000;
    u8 status = inb(HD_STATUS);

    while (--retries > 0 && !(status & (DRQ_STAT | ERR_STAT))) status = inb(HD_STATUS);
    return (status & DRQ_STAT) ? 0 : HD_FAIL("hd: drive not responding", -1);
}

static void hd_out(int nsect, int sect, int lcyl, int hcyl, int sel, int cmd)
{
    if (controller_busy()) panic("hd: controller still busy");
    outb(nsect, HD_NSECTOR);
    outb(sect, HD_SECTOR);
    outb(lcyl, HD_LCYL);
    outb(hcyl, HD_HCYL);
    outb(0xe0 | sel, HD_CURRENT);
    outb(cmd, HD_COMMAND);
}

static void reset_controller(void)
{
    int i;

    outb(4, HD_CMD);
    for (i = 0; i < 100; i++) udelay(10);
    outb(0, HD_CMD);
    if (controller_busy()) panic("hd: controller did not reset");
    if (inb(HD_ERROR) != 1) printk("hd: reset diagnostics failed");
}

int ide_probe(void)
{
    int capacity;

    reset_controller();
    if (!drive_ready()) printk("hd: drive not ready after reset");
    hd_out(0, 0, 0, 0, 0, WIN_IDENTIFY);
    if (controller_busy()) panic("hd: identify timed out");
    if (wait_DRQ() != 0) return HD_FAIL("hd: no drive found", -1);
    insw(HD_DATA, io_buf, 256);
    capacity = io_buf[60] | (io_buf[61] << 16);
    printk("hd: drive found, %d sectors", capacity);
    return capacity;
}

int ide_read(int lba, int count)
{
    hd_out(count, lba & 0xff, (lba >> 8) & 0xff, (lba >> 16) & 0xff,
           ((lba >> 24) & 0x0f) | 0x40, WIN_READ);
    while (inb(HD_STATUS) & BUSY_STAT) inb(HD_STATUS);
    if (inb(HD_STATUS) & ERR_STAT) return HD_FAIL("hd: read error", -1);
    while (!(inb(HD_STATUS) & DRQ_STAT)) inb(HD_STATUS);
    insw(HD_DATA, io_buf, 256);
    return 0;
}

int ide_write(int lba)
{
    hd_out(1, lba & 0xff, (lba >> 8) & 0xff, (lba >> 16) & 0xff,
           ((lba >> 24) & 0x0f) | 0x40, WIN_WRITE);
    while (inb(HD_STATUS) & BUSY_STAT) inb(HD_STATUS);
    if (inb(HD_STATUS) & ERR_STAT) return HD_FAIL("hd: write refused", -1);
    while (!(inb(HD_STATUS) & DRQ_STAT)) inb(HD_STATUS);
    outsw(HD_DATA, io_buf, 256);
    if (controller_busy()) panic("hd: lost interrupt on write");
    if (inb(HD_STATUS) & ERR_STAT) return HD_FAIL("hd: write error", -1);
    return 0;
}
/* DEVIL_MUT_END */
"#;

/// The CDevil glue driver (Table 4 subject). Compile it together with the
/// debug [`ide_header`] via [`cdevil_includes`].
pub const IDE_CDEVIL_DRIVER: &str = r#"/* CDevil glue over the Devil-generated PIIX4 stubs (debug mode). */
unsigned short io_buf[256];

#include "ide_piix4.dil.h"

/* DEVIL_MUT_BEGIN */
static int wait_not_busy(void)
{
    int retries = 20000;

    while (--retries > 0) {
        if (dil_eq(get_busy(), NOT_BUSY)) return 0;
    }
    return -1;
}

static int check_error(void)
{
    u32 code = dil_val(get_error_code());

    switch (code) {
    case 0x04:
        printk("ide: command aborted");
        return -1;
    case 0x10:
        printk("ide: sector id not found");
        return -2;
    case 0x40:
        printk("ide: uncorrectable data error");
        return -3;
    case 0x80:
        printk("ide: bad block mark");
        return -4;
    default:
        printk("ide: unknown error %x", code);
        return -5;
    }
}

static int command_ok(void)
{
    if (dil_eq(get_busy(), BUSY)) return 0;
    if (dil_eq(get_ready(), RDY_OFF)) return 0;
    if (dil_eq(get_write_fault(), WF_ON)) return 0;
    if (dil_eq(get_error_bit(), ERR_ON)) return 0;
    return 1;
}

static void select_address(int lba, int count)
{
    set_sector_count(mk_sector_count(count & 0xff));
    set_sector_number(mk_sector_number(lba & 0xff));
    set_cyl_low(mk_cyl_low((lba >> 8) & 0xff));
    set_cyl_high(mk_cyl_high((lba >> 16) & 0xff));
    set_Lba_mode(LBA);
    set_Drive(MASTER);
    set_head(mk_head((lba >> 24) & 0x0f));
}

int ide_probe(void)
{
    int capacity;
    int i;

    dil_ensure_init();
    set_soft_reset(SRST_ON);
    udelay(100);
    set_soft_reset(SRST_OFF);
    if (wait_not_busy() != 0)
        panic("ide: controller wedged after reset");
    set_Drive(MASTER);
    if (!dil_eq(get_Drive(), MASTER))
        printk("ide: drive select readback failed");
    if (dil_eq(get_ready(), RDY_OFF))
        printk("ide: drive not ready after reset");
    set_Command(IDENTIFY);
    if (wait_not_busy() != 0)
        panic("ide: identify timed out");
    if (dil_eq(get_error_bit(), ERR_ON))
        return check_error();
    if (dil_eq(get_drq(), DRQ_OFF))
        return (printk("ide: no drive found"), -1);
    for (i = 0; i < 256; i++)
        io_buf[i] = dil_val(get_io_data());
    capacity = io_buf[60] | (io_buf[61] << 16);
    printk("ide: drive found, %d sectors", capacity);
    return capacity;
}

int ide_read(int lba, int count)
{
    int i;

    dil_ensure_init();
    select_address(lba, count);
    set_Command(READ_SECTORS);
    if (wait_not_busy() != 0)
        return -1;
    if (dil_eq(get_error_bit(), ERR_ON))
        return check_error();
    if (dil_eq(get_drq(), DRQ_OFF))
        return -1;
    for (i = 0; i < 256; i++)
        io_buf[i] = dil_val(get_io_data());
    if (!command_ok())
        return check_error();
    return 0;
}

int ide_write(int lba)
{
    int i;

    dil_ensure_init();
    select_address(lba, 1);
    set_Command(WRITE_SECTORS);
    if (wait_not_busy() != 0)
        return -1;
    if (dil_eq(get_drq(), DRQ_OFF))
        return check_error();
    for (i = 0; i < 256; i++)
        set_io_data(mk_io_data(io_buf[i]));
    if (wait_not_busy() != 0)
        return -1;
    if (!command_ok())
        return check_error();
    return 0;
}
/* DEVIL_MUT_END */
"#;

/// Generate the stub header for the IDE specification in `mode`: the
/// debug stubs the catalog compiles against, or the `devil table4`
/// ablations' (`--no-asserts`, `--weak-types`).
///
/// # Panics
///
/// Panics if the bundled specification fails to compile — a corpus bug
/// caught by the crate's tests.
pub fn ide_header(mode: CodegenMode) -> String {
    let checked = crate::specs::compile("ide_piix4.dil", crate::specs::IDE_PIIX4)
        .expect("bundled IDE spec compiles");
    let stubs = generate(&checked, mode);
    wrap_header(stubs)
}

/// Append the machine-specific initialisation call the glue layer relies
/// on: bind both channels' base ports and run `ide_piix4_init` the first
/// time any entry point runs. The generated `*_init` takes the port
/// parameters in specification order.
fn wrap_header(mut stubs: String) -> String {
    stubs.push_str(
        "\nstatic int dil_initialized;\n\
         static void dil_ensure_init(void)\n{\n\
         \x20   if (!dil_initialized) {\n\
         \x20       ide_piix4_init(0x1f0, 0x1f0, 0x170, 0x170);\n\
         \x20       dil_initialized = 1;\n\
         \x20   }\n}\n",
    );
    stubs
}

/// The include set for compiling the CDevil driver.
pub fn cdevil_includes() -> Vec<(String, String)> {
    vec![(IDE_HEADER_NAME.to_string(), ide_header(CodegenMode::Debug))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_kernel::boot::DEFAULT_FUEL;
    use devil_kernel::scenario::{run_compiled, ScenarioReport};
    use devil_kernel::scenarios::IdeBootScenario;
    use devil_kernel::{fs, Outcome, Scenario};

    fn includes_ref(v: &[(String, String)]) -> Vec<(&str, &str)> {
        v.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect()
    }

    /// Boot `program` under the `ide-boot` scenario, on the machine the
    /// scenario builds.
    fn boot(program: &devil_minic::Program) -> ScenarioReport {
        let mut scenario = IdeBootScenario::new(fs::standard_files());
        let mut io = scenario.build();
        run_compiled(&scenario, &program.to_bytecode(), &mut io, DEFAULT_FUEL)
    }

    #[test]
    fn c_driver_compiles() {
        devil_minic::compile(IDE_C_FILE, IDE_C_DRIVER).expect("C driver compiles");
    }

    #[test]
    fn cdevil_driver_compiles_against_debug_header() {
        let incs = cdevil_includes();
        devil_minic::compile_with_includes(
            IDE_CDEVIL_FILE,
            IDE_CDEVIL_DRIVER,
            &includes_ref(&incs),
        )
        .expect("CDevil driver compiles");
    }

    #[test]
    fn c_driver_boots_clean() {
        let program = devil_minic::compile(IDE_C_FILE, IDE_C_DRIVER).unwrap();
        let report = boot(&program);
        assert_eq!(report.outcome, Outcome::Boot, "{}: {:?}", report.detail, report.console);
    }

    #[test]
    fn cdevil_driver_boots_clean() {
        let incs = cdevil_includes();
        let program = devil_minic::compile_with_includes(
            IDE_CDEVIL_FILE,
            IDE_CDEVIL_DRIVER,
            &includes_ref(&incs),
        )
        .unwrap();
        let report = boot(&program);
        assert_eq!(report.outcome, Outcome::Boot, "{}: {:?}", report.detail, report.console);
    }

    #[test]
    fn both_drivers_have_mutation_regions() {
        assert!(IDE_C_DRIVER.contains("DEVIL_MUT_BEGIN"));
        assert!(IDE_C_DRIVER.contains("DEVIL_MUT_END"));
        assert!(IDE_CDEVIL_DRIVER.contains("DEVIL_MUT_BEGIN"));
        assert!(IDE_CDEVIL_DRIVER.contains("DEVIL_MUT_END"));
    }

    #[test]
    fn io_buf_is_outside_the_mutable_region() {
        let begin = IDE_C_DRIVER.find("DEVIL_MUT_BEGIN").unwrap();
        assert!(IDE_C_DRIVER.find("io_buf[256]").unwrap() < begin);
        let begin = IDE_CDEVIL_DRIVER.find("DEVIL_MUT_BEGIN").unwrap();
        assert!(IDE_CDEVIL_DRIVER.find("io_buf[256]").unwrap() < begin);
    }

    #[test]
    fn production_header_also_compiles_the_glue() {
        // The same glue source builds against production stubs (mk_/dil_eq
        // collapse to plain integer forms).
        let hdr = ide_header(CodegenMode::Production);
        let incs = vec![(IDE_HEADER_NAME.to_string(), hdr)];
        devil_minic::compile_with_includes(
            IDE_CDEVIL_FILE,
            IDE_CDEVIL_DRIVER,
            &includes_ref(&incs),
        )
        .expect("glue compiles against production stubs");
    }
}
