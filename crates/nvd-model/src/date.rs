//! Civil (proleptic Gregorian) date arithmetic.
//!
//! The NVD study needs day-level arithmetic (lag times, day-of-week analyses,
//! year buckets) but no time zones or clocks, so this module implements a
//! small, exact civil-date type instead of pulling in a calendar crate.
//!
//! Conversions between a date and its day number use Howard Hinnant's
//! `days_from_civil` / `civil_from_days` algorithms, which are exact over the
//! entire `i32` year range used here.

use std::fmt;
use std::str::FromStr;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Error returned when parsing a [`Date`] from text fails.
///
/// The inner string describes the malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDateError {
    msg: String,
}

impl ParseDateError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid date: {}", self.msg)
    }
}

impl std::error::Error for ParseDateError {}

/// Day of the week, ISO numbering (`Monday` = 1 … `Sunday` = 7).
///
/// ```
/// use nvd_model::date::{Date, Weekday};
/// let d = Date::from_ymd(2011, 2, 7).unwrap(); // CVE-2011-0700 advisory date
/// assert_eq!(d.weekday(), Weekday::Monday);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays in ISO order, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Two-letter abbreviation as used in the paper's Table 8 (`M`, `T`, `W`, `Th`, `F`, `Sa`, `Su`).
    pub fn paper_abbrev(self) -> &'static str {
        match self {
            Weekday::Monday => "M",
            Weekday::Tuesday => "T",
            Weekday::Wednesday => "W",
            Weekday::Thursday => "Th",
            Weekday::Friday => "F",
            Weekday::Saturday => "Sa",
            Weekday::Sunday => "Su",
        }
    }

    /// Index into [`Weekday::ALL`] (Monday = 0 … Sunday = 6).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Weekday::Monday => "Mon",
            Weekday::Tuesday => "Tue",
            Weekday::Wednesday => "Wed",
            Weekday::Thursday => "Thu",
            Weekday::Friday => "Fri",
            Weekday::Saturday => "Sat",
            Weekday::Sunday => "Sun",
        };
        f.write_str(name)
    }
}

/// A civil (proleptic Gregorian) calendar date with day precision.
///
/// Dates are totally ordered, hashable and cheap to copy. The canonical
/// textual form is ISO-8601 (`YYYY-MM-DD`), which is also the serde
/// representation, so a serialized [`Date`] is human-readable inside the JSON
/// feeds produced by this workspace.
///
/// ```
/// use nvd_model::date::Date;
/// let pub_date: Date = "2011-03-14".parse()?;
/// let advisory: Date = "2011-02-07".parse()?;
/// assert_eq!(pub_date.days_since(advisory), 35); // CVE-2011-0700 lag
/// # Ok::<(), nvd_model::date::ParseDateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Days since the civil epoch 1970-01-01 (may be negative).
    days: i32,
}

impl Date {
    /// Earliest year accepted by [`Date::from_ymd`]; NVD entries start in 1988.
    pub const MIN_YEAR: i32 = 1800;
    /// Latest year accepted by [`Date::from_ymd`].
    pub const MAX_YEAR: i32 = 2999;

    /// Constructs a date from calendar components.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDateError`] if the month or day is out of range for the
    /// given year, or the year lies outside `[MIN_YEAR, MAX_YEAR]`.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self, ParseDateError> {
        if !(Self::MIN_YEAR..=Self::MAX_YEAR).contains(&year) {
            return Err(ParseDateError::new(format!("year {year} out of range")));
        }
        if !(1..=12).contains(&month) {
            return Err(ParseDateError::new(format!("month {month} out of range")));
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(ParseDateError::new(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        Ok(Self {
            days: days_from_civil(year, month, day),
        })
    }

    /// Constructs a date directly from a day number relative to 1970-01-01.
    pub fn from_day_number(days: i32) -> Self {
        Self { days }
    }

    /// Day number relative to 1970-01-01 (negative before the epoch).
    pub fn day_number(self) -> i32 {
        self.days
    }

    /// Calendar year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// Calendar month, 1-based.
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Calendar day of month, 1-based.
    pub fn day(self) -> u32 {
        self.ymd().2
    }

    /// All three calendar components at once.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.days)
    }

    /// Day of the week.
    pub fn weekday(self) -> Weekday {
        // 1970-01-01 was a Thursday; index Monday = 0.
        let idx = (self.days + 3).rem_euclid(7) as usize;
        Weekday::ALL[idx]
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn plus_days(self, n: i32) -> Self {
        Self {
            days: self.days + n,
        }
    }

    /// Signed whole-day difference `self - other`.
    pub fn days_since(self, other: Date) -> i32 {
        self.days - other.days
    }

    /// First day of this date's year, used for year-bucketed analyses.
    pub fn start_of_year(self) -> Self {
        Self::from_ymd(self.year(), 1, 1).expect("jan 1 always valid")
    }

    /// Whether this is December 31st — the NVD "year-end artifact" day the
    /// paper calls out in Table 8.
    pub fn is_new_years_eve(self) -> bool {
        let (_, m, d) = self.ymd();
        m == 12 && d == 31
    }

    /// US-style short form used by the paper's tables, e.g. `12/31/04`.
    pub fn paper_short(self) -> String {
        let (y, m, d) = self.ymd();
        format!("{:02}/{:02}/{:02}", m, d, y.rem_euclid(100))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl FromStr for Date {
    type Err = ParseDateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, '-');
        let y = parts
            .next()
            .ok_or_else(|| ParseDateError::new(s))?
            .parse::<i32>()
            .map_err(|_| ParseDateError::new(s))?;
        let m = parts
            .next()
            .ok_or_else(|| ParseDateError::new(s))?
            .parse::<u32>()
            .map_err(|_| ParseDateError::new(s))?;
        let d = parts
            .next()
            .ok_or_else(|| ParseDateError::new(s))?
            .parse::<u32>()
            .map_err(|_| ParseDateError::new(s))?;
        Date::from_ymd(y, m, d)
    }
}

impl Serialize for Date {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for Date {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(D::Error::custom)
    }
}

/// Whether `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in `month` of `year`.
///
/// # Panics
///
/// Panics if `month` is not in `1..=12`.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("month {month} out of range"),
    }
}

/// Hinnant's `days_from_civil`: days since 1970-01-01 for a y/m/d triple.
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32; // [0, 399]
    let mp = (m + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i32 - 719_468
}

/// Hinnant's `civil_from_days`: y/m/d triple for days since 1970-01-01.
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        let d = Date::from_ymd(1970, 1, 1).unwrap();
        assert_eq!(d.day_number(), 0);
        assert_eq!(d.weekday(), Weekday::Thursday);
    }

    #[test]
    fn known_dates_roundtrip() {
        for &(y, m, d) in &[
            (1988, 1, 1),
            (1999, 12, 31),
            (2000, 2, 29),
            (2004, 12, 31),
            (2011, 2, 7),
            (2016, 2, 29),
            (2018, 5, 21), // the paper's NVD snapshot date
            (2100, 3, 1),
        ] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    #[test]
    fn rejects_invalid_components() {
        assert!(Date::from_ymd(2001, 2, 29).is_err());
        assert!(Date::from_ymd(2001, 13, 1).is_err());
        assert!(Date::from_ymd(2001, 0, 1).is_err());
        assert!(Date::from_ymd(2001, 6, 31).is_err());
        assert!(Date::from_ymd(2001, 6, 0).is_err());
        assert!(Date::from_ymd(1500, 6, 1).is_err());
        assert!(Date::from_ymd(3200, 6, 1).is_err());
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2016));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2018));
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
    }

    #[test]
    fn weekday_matches_known_calendar() {
        // Paper Table 8: 12/31/04 was a Friday, 05/02/05 a Monday,
        // 09/09/14 a Tuesday, 07/05/17 a Wednesday, 02/15/18 a Thursday.
        let cases = [
            ((2004, 12, 31), Weekday::Friday),
            ((2005, 5, 2), Weekday::Monday),
            ((2014, 9, 9), Weekday::Tuesday),
            ((2017, 7, 5), Weekday::Wednesday),
            ((2018, 2, 15), Weekday::Thursday),
            ((2005, 12, 31), Weekday::Saturday),
        ];
        for ((y, m, d), wd) in cases {
            assert_eq!(Date::from_ymd(y, m, d).unwrap().weekday(), wd);
        }
    }

    #[test]
    fn parse_and_display() {
        let d: Date = "2018-05-21".parse().unwrap();
        assert_eq!(d.to_string(), "2018-05-21");
        assert_eq!(d.paper_short(), "05/21/18");
        assert!("2018-5".parse::<Date>().is_err());
        assert!("18-05-21x".parse::<Date>().is_err());
        assert!("banana".parse::<Date>().is_err());
        assert!("".parse::<Date>().is_err());
    }

    #[test]
    fn arithmetic() {
        let d: Date = "2011-02-07".parse().unwrap();
        assert_eq!(d.plus_days(35).to_string(), "2011-03-14");
        assert_eq!(d.plus_days(35).days_since(d), 35);
        assert_eq!(d.plus_days(-7).weekday(), d.weekday());
        assert_eq!(d.start_of_year().to_string(), "2011-01-01");
    }

    #[test]
    fn new_years_eve_flag() {
        assert!("2004-12-31".parse::<Date>().unwrap().is_new_years_eve());
        assert!(!"2004-12-30".parse::<Date>().unwrap().is_new_years_eve());
    }

    #[test]
    fn ordering_follows_calendar() {
        let a: Date = "2001-09-09".parse().unwrap();
        let b: Date = "2001-09-10".parse().unwrap();
        let c: Date = "2002-01-01".parse().unwrap();
        assert!(a < b && b < c);
        assert_eq!(a.max(c), c);
    }

    #[test]
    fn serde_roundtrip_is_iso() {
        let d: Date = "1999-12-31".parse().unwrap();
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, "\"1999-12-31\"");
        let back: Date = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn weekday_cycles_over_centuries() {
        // Every consecutive day advances the weekday by exactly one slot.
        let mut d = Date::from_ymd(1899, 12, 28).unwrap();
        for _ in 0..200 * 366 {
            let next = d.plus_days(1);
            let want = (d.weekday().index() + 1) % 7;
            assert_eq!(next.weekday().index(), want);
            d = next;
        }
    }
}
