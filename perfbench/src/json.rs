//! A minimal JSON object writer for report lines.

/// Fields of one JSON object, written in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_string(), number(value)));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), string(value)));
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    pub fn nums(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn strs(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|v| string(v)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    /// A field whose value is already JSON.
    pub fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }

    pub fn finish(self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}
