//! Process resource readings from Linux `/proc`.

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included.
///
/// # Errors
///
/// Returns an error when `/proc/self/stat` cannot be read or parsed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_cpu_seconds(&stat)
}

fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are plain. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("no command field")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        let raw = fields.get(i).ok_or("short stat line")?;
        raw.parse::<u64>()
            .map(|t| t as f64 / USER_HZ)
            .map_err(|e| e.to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
///
/// # Errors
///
/// Returns an error when `/proc/self/status` cannot be read or parsed.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .ok_or("no VmHWM value")?
        .parse()
        .map_err(|e: std::num::ParseFloatError| e.to_string())?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_follow_the_command_name() {
        let stat = "42 (a b) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
        assert!(parse_cpu_seconds("42 (x) R 1").is_err());
    }

    #[test]
    fn readings_are_available_and_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
