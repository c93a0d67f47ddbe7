//! Tokenisation and case folding.

/// Splits text into lowercase word tokens.
///
/// A token is a maximal run of ASCII alphanumeric characters (non-ASCII
/// letters are kept too, so Japanese advisory text survives tokenisation);
/// everything else — punctuation, special characters like `!` or `_`,
/// whitespace — separates tokens. This implements the paper's "unified the
/// cases … removed … special characters" preprocessing.
///
/// ```
/// use textkit::tokenize::tokenize;
/// assert_eq!(
///     tokenize("This capability CAN be accessed!"),
///     vec!["this", "capability", "can", "be", "accessed"]
/// );
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("...!!!"), Vec::<String>::new());
        assert_eq!(tokenize("a1 b2-c3"), vec!["a1", "b2", "c3"]);
    }

    #[test]
    fn tokenize_keeps_digits_and_unicode() {
        assert_eq!(tokenize("CVE-2011-0700"), vec!["cve", "2011", "0700"]);
        assert_eq!(tokenize("脆弱性 情報"), vec!["脆弱性", "情報"]);
    }
}
