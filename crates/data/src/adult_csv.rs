//! Loader for the *real* UCI Adult dataset (`adult.data`).
//!
//! The paper evaluates on Adult scaled synthetically; when the original
//! file is available this loader parses it into the same nine-dimensional
//! schema as [`crate::adult::AdultSynth`], so real and synthetic runs are
//! interchangeable. The CSV dialect is the UCI one: comma-plus-space
//! separated, `?` for missing values, no header, an optional trailing dot
//! on the label.
//!
//! Column map (UCI index → our dimension):
//!
//! | UCI field        | → | dimension        | encoding |
//! |------------------|---|------------------|----------|
//! | 0 age            | → | age              | as-is, clamped 17–90 |
//! | 1 workclass      | → | workclass        | dictionary 0–7 |
//! | 4 education-num  | → | education_num    | as-is, clamped 1–16 |
//! | 5 marital-status | → | marital_status   | dictionary 0–6 |
//! | 6 occupation     | → | occupation       | dictionary 0–13 |
//! | 7 relationship   | → | relationship     | dictionary 0–5 |
//! | 10 capital-gain  | → | capital_gain_k   | /1000, capped 49 |
//! | 12 hours-per-week| → | hours_per_week   | as-is, clamped 1–99 |
//! | 11 capital-loss  | → | capital_loss_c   | /200, capped 24 |
//!
//! Rows with `?` in any used field are skipped (standard Adult handling).

use fedaqp_model::{CountTensor, Row};

use crate::adult::AdultSynth;
use crate::{DataError, Dataset, Result};

const WORKCLASS: [&str; 8] = [
    "Private",
    "Self-emp-not-inc",
    "Self-emp-inc",
    "Federal-gov",
    "Local-gov",
    "State-gov",
    "Without-pay",
    "Never-worked",
];

const MARITAL: [&str; 7] = [
    "Married-civ-spouse",
    "Never-married",
    "Divorced",
    "Separated",
    "Widowed",
    "Married-spouse-absent",
    "Married-AF-spouse",
];

const OCCUPATION: [&str; 14] = [
    "Prof-specialty",
    "Craft-repair",
    "Exec-managerial",
    "Adm-clerical",
    "Sales",
    "Other-service",
    "Machine-op-inspct",
    "Transport-moving",
    "Handlers-cleaners",
    "Farming-fishing",
    "Tech-support",
    "Protective-serv",
    "Priv-house-serv",
    "Armed-Forces",
];

const RELATIONSHIP: [&str; 6] = [
    "Husband",
    "Not-in-family",
    "Own-child",
    "Unmarried",
    "Wife",
    "Other-relative",
];

fn encode(dict: &[&str], token: &str) -> Option<i64> {
    dict.iter().position(|&d| d == token).map(|i| i as i64)
}

/// Statistics of one load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Lines parsed into rows.
    pub loaded: usize,
    /// Lines skipped (missing values / unknown categories / malformed).
    pub skipped: usize,
}

/// Parses one UCI `adult.data` line into a nine-value row.
fn parse_adult_line(line: &str) -> Option<Row> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() < 15 {
        return None;
    }
    let age: i64 = fields[0].parse().ok()?;
    let workclass = encode(&WORKCLASS, fields[1])?;
    let education_num: i64 = fields[4].parse().ok()?;
    let marital = encode(&MARITAL, fields[5])?;
    let occupation = encode(&OCCUPATION, fields[6])?;
    let relationship = encode(&RELATIONSHIP, fields[7])?;
    let capital_gain: i64 = fields[10].parse().ok()?;
    let capital_loss: i64 = fields[11].parse().ok()?;
    let hours: i64 = fields[12].parse().ok()?;
    Some(Row::raw(vec![
        age.clamp(17, 90),
        workclass,
        education_num.clamp(1, 16),
        marital,
        occupation,
        relationship,
        (capital_gain / 1000).min(49),
        hours.clamp(1, 99),
        (capital_loss / 200).min(24),
    ]))
}

/// Parses UCI `adult.data` content into a [`Dataset`] with the
/// [`AdultSynth::schema`].
fn load_adult_csv(content: &str) -> Result<(Dataset, LoadStats)> {
    let schema = AdultSynth::schema();
    let mut rows = Vec::new();
    let mut stats = LoadStats::default();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_adult_line(line) {
            Some(row) => {
                rows.push(row);
                stats.loaded += 1;
            }
            None => stats.skipped += 1,
        }
    }
    if rows.is_empty() {
        return Err(DataError::BadConfig("no parsable rows in adult CSV"));
    }
    let keep: Vec<usize> = (0..schema.arity()).collect();
    let tensor = CountTensor::aggregate(&schema, &rows, &keep)?;
    let raw_rows = tensor.raw_rows();
    Ok((
        Dataset {
            schema: tensor.schema().clone(),
            cells: tensor.into_cells(),
            raw_rows,
        },
        stats,
    ))
}

/// Loads `adult.data` from a file path.
pub fn load_adult_file(path: &std::path::Path) -> Result<(Dataset, LoadStats)> {
    let content = std::fs::read_to_string(path)
        .map_err(|_| DataError::BadConfig("cannot read adult CSV file"))?;
    load_adult_csv(&content)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Male, 0, 0, 40, United-States, <=50K
53, Private, 234721, 11th, 7, Married-civ-spouse, Handlers-cleaners, Husband, Black, Male, 0, 0, 40, United-States, <=50K
28, ?, 338409, Bachelors, 13, Married-civ-spouse, Prof-specialty, Wife, Black, Female, 0, 0, 40, Cuba, <=50K
37, Private, 284582, Masters, 14, Married-civ-spouse, Exec-managerial, Wife, White, Female, 0, 1902, 40, United-States, <=50K";

    #[test]
    fn parses_clean_lines_and_skips_missing() {
        let (ds, stats) = load_adult_csv(SAMPLE).unwrap();
        assert_eq!(stats.loaded, 5);
        assert_eq!(stats.skipped, 1); // the `?` workclass line
        assert_eq!(ds.raw_rows, 5);
        for c in &ds.cells {
            ds.schema.check_row(c).unwrap();
        }
    }

    #[test]
    fn field_encoding_is_correct() {
        let row = parse_adult_line(
            "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, \
             Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K",
        )
        .unwrap();
        assert_eq!(row.value(0), 39); // age
        assert_eq!(row.value(1), 5); // State-gov
        assert_eq!(row.value(2), 13); // education_num
        assert_eq!(row.value(3), 1); // Never-married
        assert_eq!(row.value(4), 3); // Adm-clerical
        assert_eq!(row.value(5), 1); // Not-in-family
        assert_eq!(row.value(6), 2); // 2174/1000
        assert_eq!(row.value(7), 40); // hours
        assert_eq!(row.value(8), 0); // no capital loss
    }

    #[test]
    fn clamps_out_of_domain_values() {
        let row = parse_adult_line(
            "99, Private, 1, Bachelors, 20, Divorced, Sales, Husband, White, Male, \
             99999, 4356, 120, United-States, >50K",
        )
        .unwrap();
        assert_eq!(row.value(0), 90); // age clamp
        assert_eq!(row.value(2), 16); // education clamp
        assert_eq!(row.value(6), 49); // gain cap
        assert_eq!(row.value(7), 99); // hours clamp
        assert_eq!(row.value(8), 21); // 4356/200
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let content = format!("{SAMPLE}\nnot,a,row\n\n12, Private");
        let (_, stats) = load_adult_csv(&content).unwrap();
        assert_eq!(stats.skipped, 3);
    }

    #[test]
    fn empty_input_errors() {
        assert!(load_adult_csv("").is_err());
        assert!(load_adult_csv("?, ?, ?\n").is_err());
    }

    #[test]
    fn loaded_dataset_fits_the_synth_schema() {
        let (ds, _) = load_adult_csv(SAMPLE).unwrap();
        assert_eq!(ds.schema, AdultSynth::schema());
    }
}
