//! A small leveled logger for CLI output.
//!
//! Independent of the tracing switch: logging is gated only by a global
//! verbosity level (default [`Level::Info`]), set from `--quiet` /
//! `--verbosity N` by the CLI. Errors and warnings go to stderr, info
//! to stdout — matching what the bare `println!`/`eprintln!` calls this
//! replaces used to do.
//!
//! Use through the [`rrs_error!`](crate::rrs_error),
//! [`rrs_warn!`](crate::rrs_warn) and [`rrs_info!`](crate::rrs_info)
//! macros, which skip message formatting entirely when the level is
//! filtered out.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, in decreasing order of importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Failures the user must see (stderr, never filtered).
    Error = 0,
    /// Suspicious-but-recoverable conditions (stderr).
    Warn = 1,
    /// Normal command output (stdout, the default level).
    Info = 2,
}

impl Level {
    /// Parses a numeric verbosity (0 = errors only … 2 = info),
    /// clamping values above 2 to [`Level::Info`].
    #[must_use]
    pub fn from_verbosity(v: u8) -> Self {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            _ => Level::Info,
        }
    }
}

static VERBOSITY: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the global verbosity: messages at levels above `level` are
/// dropped.
pub fn set_verbosity(level: Level) {
    VERBOSITY.store(level as u8, Ordering::Relaxed);
}

/// Returns the current verbosity level.
#[must_use]
pub fn verbosity() -> Level {
    Level::from_verbosity(VERBOSITY.load(Ordering::Relaxed))
}

/// Returns `true` when messages at `level` pass the current verbosity.
#[inline]
#[must_use]
pub fn enabled_for(level: Level) -> bool {
    (level as u8) <= VERBOSITY.load(Ordering::Relaxed)
}

/// Emits a pre-filtered message. Prefer the macros, which check
/// [`enabled_for`] before formatting.
///
/// Write errors are swallowed: a CLI whose stdout is piped into `head`
/// gets `EPIPE` mid-report, and a logger must degrade to silence there,
/// not panic the way `println!` does.
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    match level {
        Level::Error => {
            let _ = writeln!(std::io::stderr().lock(), "error: {args}");
        }
        Level::Warn => {
            let _ = writeln!(std::io::stderr().lock(), "warning: {args}");
        }
        Level::Info => {
            let _ = writeln!(std::io::stdout().lock(), "{args}");
        }
    }
}

/// Logs at [`Level::Error`] (stderr, prefixed `error:`).
#[macro_export]
macro_rules! rrs_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled_for($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`] (stderr, prefixed `warning:`).
#[macro_export]
macro_rules! rrs_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled_for($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] (stdout, unprefixed).
#[macro_export]
macro_rules! rrs_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled_for($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, ::core::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests_lock;

    #[test]
    fn verbosity_ladder_filters_correctly() {
        let _guard = tests_lock();
        set_verbosity(Level::Warn);
        assert!(enabled_for(Level::Error));
        assert!(enabled_for(Level::Warn));
        assert!(!enabled_for(Level::Info));
        set_verbosity(Level::Info);
    }

    #[test]
    fn numeric_verbosity_clamps() {
        assert_eq!(Level::from_verbosity(0), Level::Error);
        assert_eq!(Level::from_verbosity(1), Level::Warn);
        assert_eq!(Level::from_verbosity(2), Level::Info);
        assert_eq!(Level::from_verbosity(9), Level::Info);
    }

    #[test]
    fn filtered_macro_skips_formatting() {
        let _guard = tests_lock();
        set_verbosity(Level::Error);
        struct Bomb;
        impl std::fmt::Display for Bomb {
            fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                panic!("formatting must not happen for a filtered level");
            }
        }
        rrs_info!("{}", Bomb);
        set_verbosity(Level::Info);
    }
}
