//! Process CPU time from `/proc/self/stat` (user + system, every thread of
//! the process, exited threads included).

/// `(utime, stime)` in clock ticks, parsed from the text of a
/// `/proc/<pid>/stat` file.
///
/// The second field is the command name in parentheses, and the name may
/// itself contain spaces and `)`. The fields after it are found from the
/// *last* `)` in the line: the state is then field 3, and `utime` and
/// `stime` are fields 14 and 15.
#[must_use]
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3, so field 14 is the 12th item.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Whole-host CPU time in clock ticks, from the aggregate `cpu` line of
/// `/proc/stat`: `(total, idle + iowait, steal)`. Steal is time the
/// hypervisor gave this machine's virtual CPUs to someone else.
#[must_use]
pub fn parse_host_ticks(stat: &str) -> Option<(u64, u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total = f.iter().take(8).sum();
    Some((total, f.get(3)? + f.get(4)?, *f.get(7)?))
}

/// The host's CPU time so far (see [`parse_host_ticks`]); zeros when
/// `/proc/stat` is unreadable.
#[must_use]
pub fn host_ticks() -> (u64, u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_ticks(&s))
        .unwrap_or((0, 0, 0))
}

/// Clock ticks per second (`AT_CLKTCK` from the process's auxiliary
/// vector), falling back to the usual Linux value of 100.
#[must_use]
pub fn ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte word"));
        let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte word"));
        if key == AT_CLKTCK && val > 0 {
            return val;
        }
    }
    100
}

/// This process's user + system CPU time so far, in seconds.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is missing or malformed: the benchmark's
/// CPU-cost metrics cannot be measured without it.
#[must_use]
pub fn cpu_seconds(ticks_per_second: u64) -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let (u, s) = parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    (u + s) as f64 / ticks_per_second as f64
}
