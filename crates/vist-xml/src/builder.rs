//! Fluent programmatic document construction.

use crate::dom::{Attribute, Document, NodeData};

/// Builds an element subtree bottom-up, then converts into a [`Document`].
///
/// Used pervasively by `vist-datagen` to synthesize DBLP-like and XMARK-like
/// records.
///
/// ```
/// use vist_xml::ElementBuilder;
///
/// let doc = ElementBuilder::new("purchase")
///     .child(
///         ElementBuilder::new("seller")
///             .attr("id", "s1")
///             .child(ElementBuilder::new("name").text("dell")),
///     )
///     .into_document();
/// assert_eq!(doc.name(doc.root().unwrap()), "purchase");
/// ```
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    name: String,
    attributes: Vec<Attribute>,
    children: Vec<Child>,
}

#[derive(Debug, Clone)]
enum Child {
    Element(ElementBuilder),
    Text(String),
}

impl ElementBuilder {
    /// Start an element with the given tag name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ElementBuilder {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Add an attribute.
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push(Attribute {
            name: name.into(),
            value: value.into(),
        });
        self
    }

    /// Add a child element.
    #[must_use]
    pub fn child(mut self, child: ElementBuilder) -> Self {
        self.children.push(Child::Element(child));
        self
    }

    /// Add several child elements.
    #[must_use]
    pub fn children(mut self, children: impl IntoIterator<Item = ElementBuilder>) -> Self {
        self.children
            .extend(children.into_iter().map(Child::Element));
        self
    }

    /// Add a text child.
    #[must_use]
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Child::Text(text.into()));
        self
    }

    /// Finish: produce a document rooted at this element.
    #[must_use]
    pub fn into_document(self) -> Document {
        let mut doc = Document::new();
        let root = doc.add_root(self.name.clone());
        if let NodeData::Element { attributes, .. } = &mut doc.nodes[root as usize].data {
            *attributes = self.attributes.clone();
        }
        for c in self.children {
            attach(&mut doc, root, c);
        }
        doc
    }

    /// Attach this subtree under `parent` in an existing document.
    pub fn attach_to(self, doc: &mut Document, parent: crate::NodeId) {
        attach(doc, parent, Child::Element(self));
    }
}

fn attach(doc: &mut Document, parent: crate::NodeId, child: Child) {
    match child {
        Child::Text(t) => {
            doc.add_text(parent, t);
        }
        Child::Element(e) => {
            let id = doc.add_element(parent, e.name);
            for a in e.attributes {
                doc.set_attribute(id, a.name, a.value);
            }
            for c in e.children {
                attach(doc, id, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn builder_matches_parsed_equivalent() {
        let built = ElementBuilder::new("a")
            .attr("x", "1")
            .child(ElementBuilder::new("b").text("hi"))
            .child(ElementBuilder::new("c"))
            .into_document();
        let parsed = parse(r#"<a x="1"><b>hi</b><c/></a>"#).unwrap();
        assert_eq!(built.to_xml(), parsed.to_xml());
    }

    #[test]
    fn attach_to_grows_existing_doc() {
        let mut doc = ElementBuilder::new("root").into_document();
        let root = doc.root().unwrap();
        ElementBuilder::new("extra")
            .attr("k", "v")
            .attach_to(&mut doc, root);
        assert_eq!(doc.child_elements(root).count(), 1);
        let extra = doc.child_elements(root).next().unwrap();
        assert_eq!(doc.attribute(extra, "k"), Some("v"));
    }

    #[test]
    fn children_bulk_helper() {
        let doc = ElementBuilder::new("r")
            .children((0..5).map(|i| ElementBuilder::new(format!("c{i}"))))
            .into_document();
        assert_eq!(doc.child_elements(doc.root().unwrap()).count(), 5);
    }
}
