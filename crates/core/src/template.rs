//! A miniature ERB-style template engine.
//!
//! The paper's frontend pairs each feature with an ERB template that
//! pre-renders a little server-side data (like the username) into an HTML
//! shell; the rest arrives via API calls. This engine supports exactly what
//! those shells need:
//!
//! * `<%= key %>` — HTML-escaped interpolation
//! * `<%== key %>` — raw interpolation (pre-rendered fragments)
//!
//! Loops and conditionals stay in Rust, where they are type-checked.

use std::collections::BTreeMap;

/// Template rendering errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    UnknownKey(String),
    UnclosedTag(usize),
}

impl std::fmt::Display for TemplateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TemplateError::UnknownKey(k) => write!(f, "unknown template key: {k}"),
            TemplateError::UnclosedTag(pos) => write!(f, "unclosed <% tag at byte {pos}"),
        }
    }
}

impl std::error::Error for TemplateError {}

/// Escape text for HTML.
pub(crate) fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render `template`, replacing `<%= key %>` / `<%== key %>` with values.
pub fn render(template: &str, values: &BTreeMap<String, String>) -> Result<String, TemplateError> {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    let mut offset = 0;
    loop {
        match rest.find("<%") {
            None => {
                out.push_str(rest);
                return Ok(out);
            }
            Some(start) => {
                out.push_str(&rest[..start]);
                let after = &rest[start + 2..];
                let end = after
                    .find("%>")
                    .ok_or(TemplateError::UnclosedTag(offset + start))?;
                let tag = &after[..end];
                let (raw, key) = match tag.strip_prefix("==") {
                    Some(k) => (true, k.trim()),
                    None => match tag.strip_prefix('=') {
                        Some(k) => (false, k.trim()),
                        None => (false, tag.trim()), // tolerate `<% key %>`
                    },
                };
                let value = values
                    .get(key)
                    .ok_or_else(|| TemplateError::UnknownKey(key.to_string()))?;
                if raw {
                    out.push_str(value);
                } else {
                    out.push_str(&escape_html(value));
                }
                offset += start + 2 + end + 2;
                rest = &after[end + 2..];
            }
        }
    }
}

/// Convenience: build the value map from pairs.
pub(crate) fn vars<const N: usize>(pairs: [(&str, String); N]) -> BTreeMap<String, String> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_passes_through() {
        let v = BTreeMap::new();
        assert_eq!(
            render("hello <b>world</b>", &v).unwrap(),
            "hello <b>world</b>"
        );
    }

    #[test]
    fn escaped_interpolation() {
        let v = vars([("user", "<script>alert(1)</script>".to_string())]);
        let html = render("Hi <%= user %>!", &v).unwrap();
        assert_eq!(html, "Hi &lt;script&gt;alert(1)&lt;/script&gt;!");
    }

    #[test]
    fn raw_interpolation() {
        let v = vars([("widget", "<div class=\"card\">x</div>".to_string())]);
        let html = render("<%== widget %>", &v).unwrap();
        assert_eq!(html, "<div class=\"card\">x</div>");
    }

    #[test]
    fn multiple_tags() {
        let v = vars([("a", "1".to_string()), ("b", "2".to_string())]);
        assert_eq!(render("<%= a %>+<%= a %>=<%= b %>", &v).unwrap(), "1+1=2");
    }

    #[test]
    fn unknown_key_errors() {
        let v = BTreeMap::new();
        assert_eq!(
            render("<%= missing %>", &v).unwrap_err(),
            TemplateError::UnknownKey("missing".to_string())
        );
    }

    #[test]
    fn unclosed_tag_errors() {
        let v = BTreeMap::new();
        assert!(matches!(
            render("ok <%= broken", &v).unwrap_err(),
            TemplateError::UnclosedTag(_)
        ));
    }

    #[test]
    fn escape_html_covers_specials() {
        assert_eq!(
            escape_html(r#"<a href="x">&'</a>"#),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;&lt;/a&gt;"
        );
    }

    #[test]
    fn tolerates_bare_tag() {
        let v = vars([("x", "y".to_string())]);
        assert_eq!(render("<% x %>", &v).unwrap(), "y");
    }
}

/// Property tests for the ERB-style template engine and HTML escaping —
/// the rendering layer under every page, so it must never emit raw
/// interpolated markup or panic on adversarial input.
#[cfg(test)]
mod props {
    use super::{escape_html, render, vars};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn escaped_output_never_contains_active_markup(s in "\\PC{0,200}") {
            let escaped = escape_html(&s);
            prop_assert!(!escaped.contains('<'));
            prop_assert!(!escaped.contains('>'));
            prop_assert!(!escaped.contains('"'));
            // Ampersands only appear as entity starts we produced.
            for (i, _) in escaped.match_indices('&') {
                let rest = &escaped[i..];
                prop_assert!(
                    rest.starts_with("&amp;")
                        || rest.starts_with("&lt;")
                        || rest.starts_with("&gt;")
                        || rest.starts_with("&quot;")
                        || rest.starts_with("&#39;"),
                    "stray ampersand in {escaped:?}"
                );
            }
        }

        #[test]
        fn interpolation_is_injection_safe(payload in "\\PC{0,100}") {
            let v = vars([("user", payload.clone())]);
            let html = render("<p>Hello <%= user %>!</p>", &v).unwrap();
            prop_assert!(html.starts_with("<p>Hello "));
            prop_assert!(html.ends_with("!</p>"));
            // Whatever the payload, no new tags appear.
            prop_assert_eq!(html.matches('<').count(), 2, "{}", html);
        }

        #[test]
        fn render_never_panics(template in "\\PC{0,120}", value in "\\PC{0,40}") {
            let v = vars([("k", value)]);
            // Any outcome is fine as long as it is a Result, not a panic.
            let _ = render(&template, &v);
        }

        #[test]
        fn plain_templates_are_identity(template in "[^<%]{0,200}") {
            let v = vars([("k", "v".to_string())]);
            prop_assert_eq!(render(&template, &v).unwrap(), template);
        }
    }
}
